package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one running cmd/serve process.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  *os.File
	done chan struct{} // closed once the process has been waited for
}

// startServer starts cmd/serve with args on a free loopback port and
// waits until /healthz answers 200. It returns the server and the time
// from process start to the first healthy answer.
func startServer(bin string, args []string, logPath string, timeout time.Duration) (*server, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	s := &server{cmd: cmd, base: "http://" + addr, log: logf, done: make(chan struct{})}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start serve: %w", err)
	}
	go func() {
		_ = cmd.Wait() // the exit status of a server we stop ourselves carries no information
		close(s.done)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return s, time.Since(start), nil
			}
		}
		select {
		case <-s.done:
			logf.Close()
			return nil, 0, fmt.Errorf("serve exited before becoming healthy; see %s", logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Since(start) > timeout {
			s.stop()
			return nil, 0, fmt.Errorf("serve not healthy after %v; see %s", timeout, logPath)
		}
	}
}

// stop terminates the server and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// counters scrapes the server's /metrics counters.
func (s *server) counters() (map[string]int64, error) {
	resp, err := http.Get(s.base + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap.Counters, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

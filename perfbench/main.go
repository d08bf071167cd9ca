// Command perfbench is the repository's benchmark. It runs one workload
// against a fresh cmd/serve process, prints every end-to-end metric by
// name with its unit, checks that the served answers equal an
// in-process reference, and with -trace 1 adds an in-process run that
// times the public calls into each layer. See README.md in this
// directory for the workloads and the metric definitions.
//
// Run it through run.sh from the repository root, which builds the
// runner and the server first:
//
//	bash perfbench/run.sh --workload zipf-read-cached --seed 1 --seconds 36 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// defaultSeed is the seed runs use unless told otherwise; heldOutSeed is
// kept for confirming a claimed gain on traffic not seen while the
// change was written.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("traffic seed (held-out seed for confirming claims: %d)", heldOutSeed))
	seconds := flag.Float64("seconds", 36, "measured seconds: the open loop, the closed loop and the adds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an in-process traced run")
	root := flag.String("root", ".", "repository checkout the benchmark runs in")
	serveBin := flag.String("serve", "", "cmd/serve binary built from the checkout")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *serveBin == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (%s), -serve, -seconds > 0 and -trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	res, err := run(w, *seed, *seconds, *trace == 1, *root, *serveBin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// run prepares the inputs, runs the workload against the server, checks
// the answers and collects the metrics the trace mode asks for.
func run(w workload, seed int64, seconds float64, traced bool, root, serveBin string) (result, error) {
	res := result{Metrics: map[string]metric{}}
	build := filepath.Join(root, ".bench_build")
	dataDir, logDir := filepath.Join(build, "data"), filepath.Join(build, "logs")
	for _, d := range []string{dataDir, logDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return res, err
		}
	}
	in, err := prepareInputs(w, dataDir)
	if err != nil {
		return res, err
	}
	p := makePlan(w, seed, seconds)
	printEnv(w, seed, seconds, traced, root, in, p)

	h, err := runServed(w, in, p, seconds, serveBin, logDir)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = h.attempted, h.failed
	ref, err := newReference(in.texts)
	if err != nil {
		return res, err
	}
	res.Correct = checkAnswers(ref, h, w.docs)
	if !res.Correct {
		return res, nil
	}
	if !traced {
		for n, m := range h.endToEnd() {
			res.Metrics[n] = m
		}
		return res, nil
	}
	runtime.GC() // the reference is dead; free it before the traced run builds its own pipelines
	layers, err := runLayers(w, in, p, h)
	if err != nil {
		return res, err
	}
	for n, m := range layers {
		res.Metrics[n] = m
	}
	return res, nil
}

// checkAnswers compares the bodies the server returned before the first
// add and after the last with the reference, replaying the acknowledged
// adds in between, and requires every acknowledged add to be queryable.
func checkAnswers(ref *reference, h *servedRun, docs int) bool {
	fail := func(err error) bool {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", err)
		return false
	}
	if h.unqueryable != nil {
		return fail(h.unqueryable)
	}
	if err := ref.compare(h.before, "before the first add"); err != nil {
		return fail(err)
	}
	if err := ref.replay(h.acked, docs); err != nil {
		return fail(err)
	}
	if err := ref.compare(h.after, "after the last add"); err != nil {
		return fail(err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: correct: %d bodies before and %d after %d adds equal the in-process reference\n",
		len(h.before), len(h.after), len(h.acked))
	return true
}

// printEnv prints the run's environment as one JSON line prefixed
// "env ", so every result records what produced it.
func printEnv(w workload, seed int64, seconds float64, traced bool, root string, in inputs, p plan) {
	commit := "unknown (not a git checkout)"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	env := map[string]any{
		"workload":       w.name,
		"seed":           seed,
		"seconds":        seconds,
		"trace":          traced,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"GOMAXPROCS_env": os.Getenv("GOMAXPROCS"),
		"go":             runtime.Version(),
		"git_commit":     commit,
		"corpus":         map[string]any{"domain": "tech", "docs": w.docs, "seed": corpusSeed},
		"shards":         w.shards,
		"snapshot_bytes": in.snapBytes,
		"server_flags":   w.serverArgs(in),
		"connections":    runtime.NumCPU(),
		"rate_rps":       w.rate,
		"requests": map[string]int{
			"warmup": len(p.warmup), "fill": len(p.fill), "open": len(p.open), "adds": len(p.adds), "sample": len(p.sample),
		},
		"steal_limit": stealLimit,
		"time":        time.Now().UTC().Format(time.RFC3339),
	}
	b, _ := json.Marshal(env) // plain maps of basic values always marshal
	fmt.Println("env", string(b))
}

// servedRun is what one run against the server measured.
type servedRun struct {
	setup       []float64 // seconds from process start to first healthy /healthz, quietest starts
	open        []outcome
	late        []time.Duration
	closed      []outcome
	closedFrom  time.Time
	closedTo    time.Time
	adds        []outcome
	steal       *stealWatch // steal share per second of the open loop, closed loop and adds
	related     []float64   // measured open-loop latencies, ms (see measure)
	addLat      []float64   // measured add latencies, ms
	saturation  float64     // measured closed-loop completions per second
	rssMB       float64
	counters    map[string]int64 // /metrics counter deltas over the open loop
	acked       map[int]string   // acknowledged add id → text
	before      map[int][]byte   // sample bodies before the first add
	after       map[int][]byte   // sample and added-doc bodies after the last add
	unqueryable error            // an acknowledged add that did not answer /related with 200
	attempted   int
	failed      int
}

// runServed starts the workload's server until enough starts saw a
// quiet host (keeping the last), warms it up and fills its cache,
// captures the sample, runs the open loop, the closed loop and the paced
// adds, then captures the sample again.
func runServed(w workload, in inputs, p plan, seconds float64, serveBin, logDir string) (*servedRun, error) {
	h := &servedRun{acked: map[int]string{}}
	logPath := filepath.Join(logDir, "serve-"+w.name+".log")
	// A runner stopped by a signal stops its server before exiting.
	var current atomic.Pointer[server]
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer func() {
		signal.Stop(sig)
		close(sig) // ends the goroutine below
	}()
	go func() {
		if _, ok := <-sig; ok {
			if s := current.Load(); s != nil {
				s.stop()
			}
			os.Exit(1)
		}
	}()
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	// Start until at least setupRuns starts stayed within the steal
	// limit and took setupSeconds together, or until the starts took
	// setupBudget. setup_s is the median of the clean starts, or of the
	// quietest setupRuns when fewer were clean.
	type start struct{ secs, steal float64 }
	var starts, clean []start
	var cleanSecs, spent float64
	for len(starts) < setupRuns || spent < setupBudget && (len(clean) < setupRuns || cleanSecs < setupSeconds) {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		c0, err := readCPU()
		if err != nil {
			return nil, err
		}
		s, d, err := startServer(serveBin, w.serverArgs(in), logPath, 120*time.Second)
		if err != nil {
			return nil, err
		}
		srv = s
		current.Store(s)
		c1, err := readCPU()
		if err != nil {
			return nil, err
		}
		st := start{d.Seconds(), c1.share(c0)}
		starts = append(starts, st)
		spent += st.secs
		if st.steal <= stealLimit {
			clean = append(clean, st)
			cleanSecs += st.secs
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: set-up: %d of %d server starts had at most %.0f%% steal\n", len(clean), len(starts), 100*stealLimit)
	if len(clean) < setupRuns {
		sort.SliceStable(starts, func(a, b int) bool { return starts[a].steal < starts[b].steal })
		clean = starts[:setupRuns]
	}
	for _, st := range clean {
		h.setup = append(h.setup, st.secs)
	}

	cs := newConns(srv.base, runtime.NumCPU())
	defer closeConns(cs)
	warm, _ := openLoop(cs, p.warmup)
	fill := closedLoop(cs, p.fill, 10*time.Minute)
	var err error
	if h.before, err = capture(cs[0], p.sample); err != nil {
		return nil, err
	}
	c0, err := srv.counters()
	if err != nil {
		return nil, err
	}
	if h.steal, err = watchSteal(); err != nil {
		return nil, err
	}
	h.open, h.late = openLoop(cs, p.open)
	c1, err := srv.counters()
	if err != nil {
		h.steal.stop()
		return nil, err
	}
	h.counters = map[string]int64{}
	for k, v := range c1 {
		h.counters[k] = v - c0[k]
	}
	h.closedFrom = time.Now()
	h.closed = closedLoop(cs, p.closed, time.Duration(seconds*closedShare*float64(time.Second)))
	h.closedTo = time.Now()
	h.adds, _ = openLoop(cs[:1], p.paced)
	h.steal.stop()
	for _, o := range h.adds {
		if o.ok {
			h.acked[o.addID] = p.paced[o.idx].text
		}
	}

	docs := append([]int(nil), p.sample...)
	for id := range h.acked {
		docs = append(docs, id)
	}
	sort.Ints(docs)
	if h.after, err = capture(cs[0], docs); err != nil {
		h.unqueryable = err
	}
	if h.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	for _, outs := range [][]outcome{warm, fill, h.open, h.closed, h.adds} {
		for _, o := range outs {
			h.attempted++
			if !o.ok {
				h.failed++
			}
		}
	}
	h.attempted += len(p.sample) + len(docs)
	h.measure()
	return h, nil
}

// measure keeps the part of each measured phase that ran on a quiet
// host (see steal.go) and prints how much that was.
func (h *servedRun) measure() {
	quiet := func(outs []outcome) ([]float64, int) {
		ats := make([]time.Time, len(outs))
		for i, o := range outs {
			ats[i] = o.at
		}
		keep, noisy := h.steal.quiet(ats)
		return latencies(outs, keep), noisy
	}
	var noisyOpen, noisyAdds, noisyClosed, measured, slots int
	h.related, noisyOpen = quiet(h.open)
	h.addLat, noisyAdds = quiet(h.adds)
	var ends []time.Time
	for _, o := range h.closed {
		if o.ok {
			ends = append(ends, o.at)
		}
	}
	h.saturation, measured, slots, noisyClosed = h.steal.quietRate(ends, h.closedFrom, h.closedTo)
	fmt.Fprintf(os.Stderr, "perfbench: cpu steal %.1f%% over the measured phases; measured %d of %d open-loop requests, %d of %d adds and %d of %d closed-loop seconds, of which %d, %d and %d seconds had more than %.0f%% steal\n",
		100*h.steal.overall(), len(h.related), len(h.open), len(h.addLat), len(h.adds), measured, slots,
		noisyOpen, noisyAdds, noisyClosed, 100*stealLimit)
}

// endToEnd derives the end-to-end metrics of the run from its measured
// part.
func (h *servedRun) endToEnd() map[string]metric {
	p50, _ := percentile(h.related, 0.5)
	p99, beyond99 := percentile(h.related, 0.99)
	a50, _ := percentile(h.addLat, 0.5)
	a90, beyond90 := percentile(h.addLat, 0.9)
	if beyond99 < 10 || beyond90 < 10 {
		fmt.Fprintf(os.Stderr, "perfbench: warning: only %d samples beyond related_p99 and %d beyond add_p90; run longer\n", beyond99, beyond90)
	}
	return map[string]metric{
		"setup_s":        {median(h.setup), "s"},
		"related_p50_ms": {p50, "ms"},
		"related_p99_ms": {p99, "ms"},
		"add_p50_ms":     {a50, "ms"},
		"add_p90_ms":     {a90, "ms"},
		"saturation_rps": {h.saturation, "req/s"},
		"rss_mb":         {h.rssMB, "MB"},
	}
}

// relatedP50us is the untraced open-loop related_p50_ms in µs.
func (h *servedRun) relatedP50us() float64 {
	v, _ := percentile(h.related, 0.5)
	return v * 1000
}

// genLateP99ms is the 99th percentile of how late the open-loop
// dispatcher released a request, in ms.
func (h *servedRun) genLateP99ms() float64 {
	ms := make([]float64, len(h.late))
	for i, d := range h.late {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	v, _ := percentile(ms, 0.99)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one keep-alive HTTP connection to the server: a client whose
// transport holds at most one connection, used by one goroutine at a
// time.
type conn struct {
	base   string
	client *http.Client
}

func newConns(base string, n int) []*conn {
	cs := make([]*conn, n)
	for i := range cs {
		cs[i] = &conn{base: base, client: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}}
	}
	return cs
}

func closeConns(cs []*conn) {
	for _, c := range cs {
		c.client.CloseIdleConnections()
	}
}

// outcome is one request's result. A failed request (transport error
// or non-200) has ok false.
type outcome struct {
	idx   int // position of the request in the list it was sent from
	ok    bool
	lat   time.Duration // from the scheduled instant (open loop) or send (closed loop)
	at    time.Time     // the scheduled instant (open loop) or completion (closed loop)
	addID int           // the id an acknowledged /add assigned
}

// related posts one /related and returns the status and body.
func (c *conn) related(doc int) (int, []byte, error) {
	return c.post("/related", fmt.Sprintf(`{"doc_id":%d,"k":%d}`, doc, relatedK))
}

func (c *conn) post(path, body string) (int, []byte, error) {
	resp, err := c.client.Post(c.base+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// addBody is the /add request body for text.
func addBody(text string) string {
	b, _ := json.Marshal(map[string]string{"text": text}) // a string map always marshals
	return string(b)
}

// do sends one generated request and reports its outcome; lat is left
// for the caller to set.
func (c *conn) do(r request) outcome {
	var o outcome
	var status int
	var body []byte
	var err error
	if r.add {
		status, body, err = c.post("/add", addBody(r.text))
	} else {
		status, body, err = c.related(r.doc)
	}
	o.ok = err == nil && status == http.StatusOK
	if o.ok && r.add {
		var resp struct {
			DocID int `json:"doc_id"`
		}
		if json.Unmarshal(body, &resp) != nil {
			o.ok = false
		} else {
			o.addID = resp.DocID
		}
	}
	return o
}

// openLoop sends reqs at their scheduled instants over the given
// connections, whatever the server's progress: a request due while every
// connection is busy waits for one, and that wait counts in its latency,
// which runs from the scheduled instant. It also returns how late the
// dispatcher released each request.
func openLoop(cs []*conn, reqs []request) ([]outcome, []time.Duration) {
	out := make([]outcome, len(reqs))
	late := make([]time.Duration, len(reqs))
	ready := make(chan int, len(reqs)) // holds the whole backlog, so dispatch never blocks
	start := time.Now()
	due := func(i int) time.Time { return start.Add(time.Duration(reqs[i].at * float64(time.Second))) }
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range ready {
				o := c.do(reqs[i])
				o.idx, o.lat, o.at = i, time.Since(due(i)), due(i)
				out[i] = o
			}
		}(c)
	}
	for i := range reqs {
		if d := time.Until(due(i)); d > 0 {
			time.Sleep(d)
		}
		late[i] = time.Since(due(i))
		ready <- i
	}
	close(ready)
	wg.Wait()
	return out, late
}

// closedLoop sends reqs back to back over every connection, in order,
// until d has passed or every request was sent.
func closedLoop(cs []*conn, reqs []request, d time.Duration) []outcome {
	var next atomic.Int64
	per := make([][]outcome, len(cs))
	stop := time.Now().Add(d)
	var wg sync.WaitGroup
	for ci, c := range cs {
		wg.Add(1)
		go func(ci int, c *conn) {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				o := c.do(reqs[i])
				o.idx, o.lat, o.at = i, time.Since(t0), time.Now()
				per[ci] = append(per[ci], o)
			}
		}(ci, c)
	}
	wg.Wait()
	var out []outcome
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// latencies returns the latencies in milliseconds of the outcomes
// whose keep entry is true, with every failed request counted as +Inf.
func latencies(outs []outcome, keep []bool) []float64 {
	var ms []float64
	for i, o := range outs {
		if !keep[i] {
			continue
		}
		if o.ok {
			ms = append(ms, float64(o.lat)/float64(time.Millisecond))
		} else {
			ms = append(ms, math.Inf(1))
		}
	}
	return ms
}

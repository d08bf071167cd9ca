package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/serve"
)

// reference is the correctness oracle: the unsharded, cache-off
// pipeline built in-process from the same corpus and seed, answered
// through the serve package's own handler so that its bodies compare
// byte for byte with the server's.
type reference struct {
	p *core.Pipeline
	h http.Handler
}

func newReference(texts []string) (*reference, error) {
	p, err := core.Build(texts, core.Config{Seed: corpusSeed})
	if err != nil {
		return nil, fmt.Errorf("reference build: %w", err)
	}
	return &reference{p: p, h: serve.New(p, serve.Config{SlowQuery: -1}).Handler()}, nil
}

func (r *reference) post(path, body string) (int, []byte) {
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

func (r *reference) related(doc int) (int, []byte) {
	return r.post("/related", fmt.Sprintf(`{"doc_id":%d,"k":%d}`, doc, relatedK))
}

// capture fetches the served /related body of every doc in docs; each
// must answer 200.
func capture(c *conn, docs []int) (map[int][]byte, error) {
	out := make(map[int][]byte, len(docs))
	for _, d := range docs {
		status, body, err := c.related(d)
		if err != nil {
			return nil, fmt.Errorf("/related doc %d: %w", d, err)
		}
		if status != http.StatusOK {
			return nil, fmt.Errorf("/related doc %d: status %d: %s", d, status, bytes.TrimSpace(body))
		}
		out[d] = body
	}
	return out, nil
}

// compare checks every captured body against the reference.
func (r *reference) compare(served map[int][]byte, when string) error {
	docs := make([]int, 0, len(served))
	for d := range served {
		docs = append(docs, d)
	}
	sort.Ints(docs)
	for _, d := range docs {
		status, want := r.related(d)
		if status != http.StatusOK {
			return fmt.Errorf("%s: reference /related doc %d: status %d", when, d, status)
		}
		if !bytes.Equal(served[d], want) {
			return fmt.Errorf("%s: /related doc %d differs from the in-process reference:\nserved:    %s\nreference: %s",
				when, d, compact(served[d]), compact(want))
		}
	}
	return nil
}

// replay applies the acknowledged adds to the reference in id order.
// The ids must be exactly the ones that follow the corpus, so that the
// reference assigns every post the id the server acknowledged.
func (r *reference) replay(acked map[int]string, docs int) error {
	ids := make([]int, 0, len(acked))
	for id := range acked {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if id != docs+i {
			return fmt.Errorf("acknowledged add ids are not %d..%d: found %d at position %d", docs, docs+len(ids)-1, id, i)
		}
		status, resp := r.post("/add", addBody(acked[id]))
		var got struct {
			DocID int `json:"doc_id"`
		}
		if status != http.StatusOK || json.Unmarshal(resp, &got) != nil || got.DocID != id {
			return fmt.Errorf("reference add for id %d: status %d: %s", id, status, bytes.TrimSpace(resp))
		}
	}
	return nil
}

func compact(b []byte) string {
	var buf bytes.Buffer
	if json.Compact(&buf, b) != nil {
		return string(b)
	}
	return buf.String()
}

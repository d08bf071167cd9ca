package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/match"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/segment"
	"repro/internal/serve"
	"repro/internal/shard"
)

// The traced run is in-process and sequential, so it needs far fewer
// requests than the served run to give steady medians.
const (
	tracedRequests = 600 // open-loop reads replayed per layer (the serve layer replays all of them on a cached workload)
	persistLoads   = 3   // snapshot loads; persist.load_s is their median
)

// layerSet accumulates per-layer metrics; a layer that does not run on
// the workload reports 0.
type layerSet map[string]metric

func (l layerSet) us(name string, d []float64) { l[name] = metric{median(d), "us"} }

// runLayers is the traced run: it times the public calls into each
// layer in-process, over the same corpus and the same generated
// requests as the served run, and derives the per-layer metrics. Counts
// come from the obs registry the program already keeps and from
// obs.Trace events the calls return; no end-to-end number is taken
// from here.
func runLayers(w workload, in inputs, p plan, h *servedRun) (map[string]metric, error) {
	obs.Enable() // the counters and spans the server records; recording is what cmd/serve does too
	l := layerSet{}
	for _, n := range perLayerNames {
		l[n.name] = metric{0, n.unit}
	}
	var reads, serveReads []int
	for i, r := range p.open {
		if i < tracedRequests {
			reads = append(reads, r.doc)
		}
		serveReads = append(serveReads, r.doc)
	}
	if w.cache == 0 {
		// Without a cache every request costs the same whatever came
		// before it, so the first requests stand for the whole loop.
		serveReads = reads
	}

	// The serving pipeline, built as the unsharded server builds it or
	// loaded as the sharded server loads it. The layers the server runs
	// are timed first, while the runner's heap holds about what the
	// server's does; the unsharded matcher comes after.
	sharded := w.shards > 1
	var pipe *core.Pipeline
	var docs []*segment.Doc // prepared corpus documents for the unsharded matcher
	if sharded {
		var loads []float64
		for i := 0; i < persistLoads; i++ {
			pipe = nil
			runtime.GC()
			t0 := time.Now()
			lp, err := core.ReadShardDir(in.snapDir)
			if err != nil {
				return nil, fmt.Errorf("load snapshot: %w", err)
			}
			loads = append(loads, time.Since(t0).Seconds())
			pipe = lp
		}
		l["persist.load_s"] = metric{median(loads), "s"}
		l["persist.bytes"] = metric{float64(in.snapBytes), "bytes"}
		l["persist.heap_mb"] = metric{heapMB(), "MB"}
	} else {
		runtime.GC()
		bp, err := core.Build(in.texts, core.Config{Seed: corpusSeed})
		if err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		pipe = bp
		st := pipe.Stats()
		l["build.preprocess_s"] = metric{st.Preprocess.Seconds(), "s"}
		l["build.segment_s"] = metric{st.Segmentation.Seconds(), "s"}
		l["build.group_s"] = metric{st.Grouping.Seconds(), "s"}
		l["build.index_s"] = metric{st.Indexing.Seconds(), "s"}
		l["build.clusters"] = metric{float64(st.NumClusters), "count"}
		l["build.heap_mb"] = metric{heapMB(), "MB"}
		docs = make([]*segment.Doc, len(in.texts))
		for i := range docs {
			docs[i] = pipe.Doc(i)
		}
	}

	coreLayer(l, pipe, reads, sharded)
	serveLayer(l, pipe, w, p, serveReads, h) // grows the collection by the adds
	ctx := context.Background()
	l.us("core.add_us", timeEach(p.adds, func(t string) { _, _ = pipe.AddContext(ctx, t) })) // MR pipelines always accept adds
	pipe = nil
	if sharded {
		if err := shardLayer(l, in.snapDir, reads); err != nil {
			return nil, err
		}
		docs = make([]*segment.Doc, len(in.texts))
		par.Do(len(docs), 0, func(i int) { docs[i] = segment.NewDoc(in.texts[i]) })
	}
	runtime.GC()
	mr := match.NewMR(core.IntentIntentMR.String(), docs, match.MRConfig{Seed: corpusSeed})
	matchLayer(l, mr, reads, sharded)
	if sharded {
		l["shard.tax_ratio"] = metric{ratio(l["shard.related_us"].Value, l["match.match_us"].Value), "ratio"}
	}
	addLayer(l, mr, p.adds)
	segmentLayer(l, p.adds)
	cacheLayer(l, h)
	l["gen_late_ms"] = metric{h.genLateP99ms(), "ms"}
	l["failed_frac"] = metric{float64(h.failed) / float64(h.attempted), "ratio"}
	return l, nil
}

// coreLayer times Pipeline.RelatedContext untraced and traced, and takes
// the index and merge counts of the untraced pass from registry deltas.
func coreLayer(l layerSet, pipe *core.Pipeline, reads []int, sharded bool) {
	ctx := context.Background()
	before := obs.Default.Snapshot()
	untraced := timeEach(reads, func(d int) { pipe.RelatedContext(ctx, d, relatedK) })
	after := obs.Default.Snapshot()
	q := float64(len(reads))
	cnt := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	l["index.postings_per_query"] = metric{cnt("index.scan.postings") / q, "count"}
	l["index.postings_skipped_per_query"] = metric{cnt("index.prune.postings_skipped") / q, "count"}
	l["index.scorepool_reuse"] = metric{1 - ratio(cnt("index.scorepool.new"), cnt("index.scorepool.get")), "ratio"}
	merge := "match.query.candidates"
	if sharded {
		merge = "shard.merge.candidates"
	}
	hb, ha := before.Histograms[merge], after.Histograms[merge]
	l["match.candidates_per_query"] = metric{ratio(float64(ha.Sum-hb.Sum), float64(ha.Count-hb.Count)), "count"}

	lists := 0
	traced := make([]float64, len(reads))
	for i, d := range reads {
		tr := obs.NewTrace()
		t0 := time.Now()
		pipe.RelatedContext(obs.WithTrace(ctx, tr), d, relatedK)
		traced[i] = since(t0)
		lists += countEvents(tr, "match.list", "shard.merge")
	}
	l["match.lists_per_query"] = metric{float64(lists) / q, "count"}
	l.us("core.related_us", untraced)
	p99, _ := percentile(untraced, 0.99)
	l["core.related_p99_us"] = metric{p99, "us"}
	l["trace.overhead_frac"] = metric{median(traced)/median(untraced) - 1, "ratio"}
}

// matchLayer times the unsharded matcher on the same collection: the
// whole query and, unless the workload is sharded (where shardLayer
// times them per leg), probe resolution and the per-cluster list scans.
func matchLayer(l layerSet, mr *match.MR, reads []int, sharded bool) {
	n := mr.Config().ListDepth(relatedK)
	l.us("match.match_us", timeEach(reads, func(d int) { mr.Match(d, relatedK) }))
	if sharded {
		return
	}
	var probes [][]match.ClusterQuery
	l.us("match.probe_us", timeEach(reads, func(d int) { probes = append(probes, mr.QuerySegs(d)) }))
	i := 0
	l.us("match.lists_us", timeEach(reads, func(d int) {
		mr.QueryClusterLists(probes[i], n, d, nil, nil)
		i++
	}))
}

// shardLayer times the shard group of the snapshot: the whole
// scatter-gather query, and its home leg and slowest sibling leg as the
// per-query deltas of the group's own shard.NN.query spans. The merge is
// the span between the last leg and the top-k in the query's own trace
// events, and the probe row times the home shard's QuerySegs.
func shardLayer(l layerSet, dir string, reads []int) error {
	g, err := shard.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("load shard group: %w", err)
	}
	// Shard-local ids ascend with global ids (the group's routing
	// invariant), so a document's local id is the number of earlier
	// documents routed to its shard.
	local := make([]int, g.NumDocs())
	next := make([]int, g.NumShards())
	for d := range local {
		s := g.Route(d)
		local[d] = next[s]
		next[s]++
	}
	legSpans := make([]*obs.Span, g.NumShards())
	for s := range legSpans {
		legSpans[s] = obs.GetOrNewSpan(fmt.Sprintf("shard.%02d.query", s))
	}
	legSums := func() []int64 {
		sums := make([]int64, len(legSpans))
		for s, sp := range legSpans {
			sums[s] = sp.Snapshot().Sum
		}
		return sums
	}
	var related, probe, home, sibling, merge, legs []float64
	for _, d := range reads {
		h := g.Route(d)
		before := legSums()
		t0 := time.Now()
		g.RelatedTraced(d, relatedK, nil)
		related = append(related, since(t0))
		after := legSums()
		worst := 0.0
		for s := range legSpans {
			leg := float64(after[s]-before[s]) / float64(time.Microsecond)
			legs = append(legs, leg)
			if s == h {
				home = append(home, leg)
			} else {
				worst = max(worst, leg)
			}
		}
		sibling = append(sibling, worst)
		t0 = time.Now()
		g.ShardMR(h).QuerySegs(local[d])
		probe = append(probe, since(t0))
		tr := obs.NewTrace()
		g.RelatedTraced(d, relatedK, tr)
		merge = append(merge, mergeSpan(tr))
	}
	l.us("shard.related_us", related)
	l.us("shard.home_leg_us", home)
	l.us("shard.sibling_leg_max_us", sibling)
	l.us("shard.merge_us", merge)
	l.us("match.probe_us", probe)
	l.us("match.lists_us", legs)
	return nil
}

// mergeSpan is the time in µs from the last per-shard list event to
// the top-k event of one traced group query.
func mergeSpan(tr *obs.Trace) float64 {
	var lastList, topk time.Duration
	for _, e := range tr.Events() {
		switch e.Name {
		case "shard.list":
			lastList = e.At
		case "shard.topk":
			topk = e.At
		}
	}
	return float64(topk-lastList) / float64(time.Microsecond)
}

// segmentLayer times document preparation and Greedy segmentation of
// the held-out posts the run adds.
func segmentLayer(l layerSet, texts []string) {
	var docs []*segment.Doc
	l.us("segment.newdoc_us", timeEach(texts, func(t string) { docs = append(docs, segment.NewDoc(t)) }))
	segs := 0
	i := 0
	l.us("segment.greedy_us", timeEach(texts, func(string) {
		segs += segment.Greedy{}.Segment(docs[i]).NumSegments()
		i++
	}))
	l["segment.segments_per_doc"] = metric{ratio(float64(segs), float64(len(texts))), "count"}
}

// addLayer times PrepareAdd and Commit on the unsharded matcher for the
// run's held-out posts. It runs after every layer that queries mr,
// since it grows the collection.
func addLayer(l layerSet, mr *match.MR, adds []string) {
	var pending []*match.PendingAdd
	l.us("match.prepare_add_us", timeEach(adds, func(t string) { pending = append(pending, mr.PrepareAdd(segment.NewDoc(t))) }))
	i := 0
	l.us("match.commit_add_us", timeEach(adds, func(string) {
		pending[i].Commit()
		i++
	}))
}

// serveLayer replays the served run's warm-up, fill and first sample
// capture untimed, so that a result cache starts the timed part in the
// state the served open loop started in, then replays reads and adds
// through a serve handler configured like the server, one request at a
// time. A /related request's self time is its handler time minus the
// core.related span time recorded under it (zero on a cache hit).
func serveLayer(l layerSet, pipe *core.Pipeline, w workload, p plan, reads []int, h *servedRun) {
	handler := serve.New(pipe, serve.Config{CacheEntries: w.cache, SlowQuery: -1}).Handler()
	coreSpan := obs.GetOrNewSpan("core.related")
	call := func(path, body string) float64 {
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		d := since(t0)
		if rec.Code != http.StatusOK {
			fmt.Fprintf(os.Stderr, "perfbench: traced %s answered %d\n", path, rec.Code)
		}
		return d
	}
	relatedBody := func(doc int) string { return fmt.Sprintf(`{"doc_id":%d,"k":%d}`, doc, relatedK) }
	for _, phase := range [][]request{p.warmup, p.fill} {
		for _, r := range phase {
			call("/related", relatedBody(r.doc))
		}
	}
	for _, doc := range p.sample {
		call("/related", relatedBody(doc))
	}
	var related, self []float64
	for _, doc := range reads {
		c0 := coreSpan.Snapshot().Sum
		d := call("/related", relatedBody(doc))
		under := float64(coreSpan.Snapshot().Sum-c0) / float64(time.Microsecond)
		related = append(related, d)
		self = append(self, d-under)
	}
	l.us("serve.related_us", related)
	l.us("serve.self_us", self)
	l.us("serve.add_us", timeEach(p.adds, func(t string) { call("/add", addBody(t)) }))
	p50 := h.relatedP50us()
	l["net.remainder_us"] = metric{p50 - l["serve.related_us"].Value, "us"}
	fmt.Fprintf(os.Stderr, "perfbench: budget: related_p50 %.1fus = serve.self %.1f + under serve %.1f + net.remainder %.1f\n",
		p50, l["serve.self_us"].Value, l["serve.related_us"].Value-l["serve.self_us"].Value, l["net.remainder_us"].Value)
}

// cacheLayer derives the cache rows from the served run's /metrics
// counter deltas over the open loop.
func cacheLayer(l layerSet, h *servedRun) {
	c := func(name string) float64 { return float64(h.counters[name]) }
	l["cache.hit_rate"] = metric{ratio(c("cache.hits"), c("cache.hits")+c("cache.misses")), "ratio"}
	l["cache.evictions_per_1k"] = metric{ratio(1000*c("cache.evictions"), float64(len(h.open))), "count"}
	l["singleflight.follower_frac"] = metric{ratio(c("singleflight.followers"), c("singleflight.followers")+c("singleflight.leaders")), "ratio"}
}

func countEvents(tr *obs.Trace, names ...string) int {
	n := 0
	for _, e := range tr.Events() {
		for _, name := range names {
			if e.Name == name {
				n++
			}
		}
	}
	return n
}

// timeEach calls f on every item and returns each call's time in µs.
func timeEach[T any](items []T, f func(T)) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		t0 := time.Now()
		f(it)
		out[i] = since(t0)
	}
	return out
}

func since(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Microsecond) }

// heapMB is the live heap after a full collection, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

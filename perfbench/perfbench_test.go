package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

type benchmarkSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name string }
	EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer   []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesRunner keeps BENCHMARK.json and the runner
// naming the same workloads and metrics with the same units.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	spec := readSpec(t)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json %v, runner %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, runner %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, runner %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames)
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, math.Inf(1), 6, 7, 8, 9}
	cases := []struct {
		q      float64
		want   float64
		beyond int
	}{{0.5, 5, 5}, {0.9, 9, 1}, {1, math.Inf(1), 0}, {0.01, 1, 9}}
	for _, c := range cases {
		got, beyond := percentile(xs, c.q)
		if got != c.want || beyond != c.beyond {
			t.Errorf("percentile(%v) = %v, %d beyond; want %v, %d", c.q, got, beyond, c.want, c.beyond)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestPlanIsDrawnFromSeed(t *testing.T) {
	secs := readSpec(t).RunSeconds
	for _, w := range workloads {
		a, b := makePlan(w, 7, secs), makePlan(w, 7, secs)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: the same seed drew different plans", w.name)
		}
		c := makePlan(w, 8, secs)
		if reflect.DeepEqual(a.open, c.open) || reflect.DeepEqual(a.adds, c.adds) {
			t.Fatalf("%s: different seeds drew the same requests", w.name)
		}
		// At the benchmark's run length, the fewest clean requests a run
		// may keep still leave at least ten samples beyond each
		// percentile.
		fewest := func(n int) []float64 { return make([]float64, int(math.Ceil(minClean*float64(n)))) }
		if _, beyond := percentile(fewest(len(a.open)), 0.99); beyond < 10 {
			t.Errorf("%s: %d requests leave %d beyond related_p99, want >= 10", w.name, len(a.open), beyond)
		}
		if _, beyond := percentile(fewest(len(a.paced)), 0.9); beyond < 10 {
			t.Errorf("%s: %d adds leave %d beyond add_p90, want >= 10", w.name, len(a.paced), beyond)
		}
		if len(a.sample) != sampleDocs {
			t.Errorf("%s: sample has %d docs, want %d", w.name, len(a.sample), sampleDocs)
		}
	}
}

// TestStealSlots checks that requests and closed-loop seconds are
// measured from the seconds with little steal, and from the quietest
// others when those are too few.
func TestStealSlots(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(secs ...float64) []time.Time {
		var ts []time.Time
		for _, s := range secs {
			ts = append(ts, t0.Add(time.Duration(s*float64(time.Second))))
		}
		return ts
	}
	// Three one-second slots of 200 ticks: 1%, 10% and 0% stolen.
	ts := at(0, 1, 2, 3)
	w := &stealWatch{samples: []stealSample{
		{ts[0], cpuTimes{0, 0}},
		{ts[1], cpuTimes{2, 200}},
		{ts[2], cpuTimes{22, 400}},
		{ts[3], cpuTimes{22, 600}},
	}}
	for _, c := range []struct {
		ats   []time.Time
		keep  []bool
		noisy int
	}{
		// The quiet slots hold half the requests: the noisy one is left out.
		{at(0.5, 1.2, 1.3, 2.1), []bool{true, false, false, true}, 0},
		// Before and after the watched time count as the first and last slot.
		{at(-1, 1.5, 3.5), []bool{true, false, true}, 0},
		// The quiet slots hold too few: the noisy one is taken as well.
		{at(0.5, 1.1, 1.2, 1.3, 1.4), []bool{true, true, true, true, true}, 1},
	} {
		keep, noisy := w.quiet(c.ats)
		if !reflect.DeepEqual(keep, c.keep) || noisy != c.noisy {
			t.Errorf("quiet(%v) = %v, %d noisy; want %v, %d", c.ats, keep, noisy, c.keep, c.noisy)
		}
	}
	ends := at(0.5, 1.2, 1.3, 2.1, 2.2, 2.9)
	if rate, measured, slots, noisy := w.quietRate(ends, ts[0].Add(time.Second/2), ts[3]); rate != 3 || measured != 1 || slots != 2 || noisy != 0 {
		t.Errorf("quietRate over slots 1-2 = %v over %d of %d slots, %d noisy; want 3 over 1 of 2, 0", rate, measured, slots, noisy)
	}
	if rate, measured, slots, noisy := w.quietRate(ends, ts[1], ts[2]); rate != 2 || measured != 1 || slots != 1 || noisy != 1 {
		t.Errorf("quietRate over slot 1 = %v over %d of %d slots, %d noisy; want 2 over 1 of 1, 1", rate, measured, slots, noisy)
	}
	if rate, measured, slots, _ := w.quietRate(ends, ts[0], ts[3]); rate != 2 || measured != 2 || slots != 3 {
		t.Errorf("quietRate over slots 0-2 = %v over %d of %d slots; want 2 over 2 of 3", rate, measured, slots)
	}
	if got := w.overall(); math.Abs(got-22.0/600) > 1e-12 {
		t.Errorf("overall = %v, want %v", got, 22.0/600)
	}
}

// TestShardedCountsRepeat is the count self-check of the sharded
// read-only workload: with the cache off and a fixed seed, the index
// postings and the merge candidates per query must repeat exactly
// between two runs, each loading the snapshot afresh. A smaller corpus
// keeps the test fast; the code path is the workload's.
func TestShardedCountsRepeat(t *testing.T) {
	w, _ := findWorkload("uniform-read-sharded")
	w.docs = 3000
	texts := corpusTexts(w.docs)
	dir := filepath.Join(t.TempDir(), "snap")
	p, err := core.Build(texts, core.Config{Seed: corpusSeed, Shards: w.shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WriteShardDir(dir); err != nil {
		t.Fatal(err)
	}
	var reads []int
	for _, r := range makePlan(w, defaultSeed, readSpec(t).RunSeconds).open[:tracedRequests] {
		reads = append(reads, r.doc)
	}
	obs.Enable()
	counts := func() [2]float64 {
		lp, err := core.ReadShardDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		l := layerSet{}
		coreLayer(l, lp, reads, true)
		return [2]float64{l["index.postings_per_query"].Value, l["match.candidates_per_query"].Value}
	}
	first, second := counts(), counts()
	if first != second {
		t.Fatalf("postings and candidates per query: first run %v, second run %v", first, second)
	}
	if first[0] == 0 || first[1] == 0 {
		t.Fatalf("counts are zero (%v): the registry is not recording", first)
	}
}

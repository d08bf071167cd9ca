package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/forum"
)

// Fixed inputs shared by every workload. The corpus is the same for
// every run seed (gencorpus -domain tech -seed 42), so runs differ only
// in the traffic they send; the run seed draws the doc picks, the
// held-out posts that /add sends and the correctness sample.
const (
	corpusSeed   = 42
	relatedK     = 5
	setupRuns    = 3    // fewest server starts setup_s takes the median of,
	setupSeconds = 2.0  // and the least set-up time they add up to, so fast starts repeat more
	setupBudget  = 20.0 // set-up seconds after which the quietest starts are taken as they are
	sampleDocs   = 100  // seeded doc ids whose /related bodies are checked
	adds         = 400  // held-out posts added after the read phases, for add_p50/p90
	warmupShare  = 0.05 // warm-up length as a share of --seconds, excluded from every metric
	openShare    = 0.70 // share of --seconds in the open loop,
	closedShare  = 0.20 // in the closed loop,
	addShare     = 0.10 // and in the paced adds
)

// workload is one traffic mix against one server configuration.
type workload struct {
	name   string
	docs   int     // corpus size
	shards int     // >1: the server loads a snapshot directory of this many shards
	cache  int     // -cache-entries (0 = off)
	zipf   bool    // Zipf(1.1) doc picks; otherwise uniform
	rate   float64 // open-loop arrival rate, req/s
	fill   int     // closed-loop warm-up requests, sent before the open loop
}

// The rates stay far below saturation: on a shared host the hypervisor
// can take a third of the CPU, and near saturation that loss becomes
// queueing that swamps what the benchmark measures.
var workloads = []workload{
	// Repeat-heavy traffic: serve and the result cache do most of the work.
	// A 4096-entry LRU under Zipf(1.1) over 10k docs fills and settles at
	// its steady hit rate (about 92%) after about 28k requests; until
	// then every request raises the hit rate, and with it the
	// throughput. The fill brings the cache there before any
	// measurement.
	{
		name: "zipf-read-cached",
		docs: 10000, cache: 4096, zipf: true, rate: 300, fill: 30000,
	},
	// No request repeats and the cache is off: every request pays probe
	// resolution, four index-scan legs and the merge.
	{
		name: "uniform-read-sharded",
		docs: 20000, shards: 4, zipf: false, rate: 100,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// serverArgs are the cmd/serve flags of the workload's server, apart
// from the listen address. Tracing is off so end-to-end numbers carry
// no tracing cost.
func (w workload) serverArgs(in inputs) []string {
	args := []string{"-trace-rate", "0", "-trace-slow=-1ms", "-seed", fmt.Sprint(corpusSeed)}
	if w.shards > 1 {
		args = append(args, "-load", in.snapDir)
	} else {
		args = append(args, "-domain", "tech", "-n", fmt.Sprint(w.docs))
	}
	if w.cache > 0 {
		args = append(args, "-cache-entries", fmt.Sprint(w.cache))
	}
	return args
}

// request is one generated operation: a /related for doc, or an /add
// of text. at is its scheduled send instant from the phase start (open
// loop only).
type request struct {
	add  bool
	doc  int
	text string
	at   float64 // seconds
}

// plan is everything a run sends, drawn from the run seed before the
// run starts.
type plan struct {
	warmup []request // open loop
	fill   []request // closed loop, after the warm-up
	open   []request // measured open loop
	closed []request // closed-loop saturation mix
	adds   []string  // held-out posts added after the reads
	paced  []request // the adds, paced evenly over the add phase
	sample []int     // doc ids whose bodies are checked
}

// makePlan draws the run's requests from seed. The open-loop schedule
// sends at the workload's constant rate.
func makePlan(w workload, seed int64, seconds float64) plan {
	// Which posts are popular is a property of the corpus, like the
	// corpus itself, so the popularity ranking comes from the corpus
	// seed; the run seed draws the sequence of picks from it.
	perm := rand.New(rand.NewSource(corpusSeed)).Perm(w.docs) // popularity rank → doc id
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if w.zipf {
		zipf = rand.NewZipf(rng, 1.1, 1, uint64(w.docs-1))
	}
	pick := func() int {
		if zipf != nil {
			return perm[zipf.Uint64()]
		}
		return rng.Intn(w.docs)
	}
	phase := func(n int, timed bool) []request {
		reqs := make([]request, n)
		for i := range reqs {
			if timed {
				reqs[i].at = float64(i) / w.rate
			}
			reqs[i].doc = pick()
		}
		return reqs
	}
	var p plan
	p.warmup = phase(int(w.rate*seconds*warmupShare), true)
	p.open = phase(int(w.rate*seconds*openShare), true)
	p.fill = phase(w.fill, false)
	// Sized above any closed-loop throughput on small machines; the
	// closed loop ends early if it runs out.
	p.closed = phase(int(10000*seconds*closedShare)+1, false)
	for i := 0; i < adds; i++ {
		t := forum.GeneratePost(forum.TechSupport, i, 1_000_000+seed).Text
		p.adds = append(p.adds, t)
		p.paced = append(p.paced, request{add: true, text: t, at: float64(i) * seconds * addShare / adds})
	}
	seen := map[int]bool{}
	for len(p.sample) < sampleDocs {
		d := rng.Intn(w.docs)
		if !seen[d] {
			seen[d] = true
			p.sample = append(p.sample, d)
		}
	}
	sort.Ints(p.sample)
	return p
}

// inputs are what a workload's server and the reference are made from.
type inputs struct {
	texts     []string // the corpus, as cmd/serve generates it
	snapDir   string   // shard directory (sharded workloads only)
	snapBytes int64
}

// corpusTexts generates the fixed corpus of n tech posts, exactly as
// cmd/serve -domain tech -n n -seed corpusSeed does.
func corpusTexts(n int) []string {
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: corpusSeed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	return texts
}

// prepareInputs generates the workload's corpus and, for sharded
// workloads, builds and writes its snapshot directory under dataDir.
// Both are rebuilt on every run from the fixed corpus seed, so every
// run loads the same bytes.
func prepareInputs(w workload, dataDir string) (inputs, error) {
	in := inputs{texts: corpusTexts(w.docs)}
	if w.shards <= 1 {
		return in, nil
	}
	in.snapDir = filepath.Join(dataDir, fmt.Sprintf("snap-%dshards-%d-s%d", w.shards, w.docs, corpusSeed))
	if err := os.RemoveAll(in.snapDir); err != nil {
		return in, err
	}
	p, err := core.Build(in.texts, core.Config{Seed: corpusSeed, Shards: w.shards})
	if err != nil {
		return in, fmt.Errorf("build snapshot: %w", err)
	}
	if err := p.WriteShardDir(in.snapDir); err != nil {
		return in, fmt.Errorf("write snapshot: %w", err)
	}
	ents, err := os.ReadDir(in.snapDir)
	if err != nil {
		return in, err
	}
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return in, err
		}
		in.snapBytes += info.Size()
	}
	return in, nil
}

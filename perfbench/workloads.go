package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/serve"
)

// fileSpec is one input file of a workload.
type fileSpec struct {
	path    string
	kind    string
	records int
}

// shape is one kind of one-shot query in a workload's mix. Every query
// issued from a shape gets its own seed, so no two one-shots share a
// result-cache entry unless the loop repeats one on purpose.
type shape struct {
	label   string
	path    string
	stats   []string
	sigma   float64
	filter  string             // plan filter expression
	keep    func(float64) bool // the same filter, evaluated by the oracle
	grouped bool
	sampler string
}

// watchSpec is one maintained query of ingest-watch and how many
// subscribers open it.
type watchSpec struct {
	shape
	subscribers int
}

// workload is one traffic mix over one generated deployment.
type workload struct {
	name       string
	files      []fileSpec
	cacheBytes int64 // scan-cache budget; 0 keeps the program's default
	// shapes is the closed loop's query mix: one client sends its next
	// query when the previous one is answered (deep-resample). Without
	// shapes the workload is the stream's open loop (ingest-watch).
	shapes []shape
	// quality is how many operations, in issue order, the seed-determined
	// metrics are computed over: queries for the closed loop, append
	// cycles for ingest-watch. traced is how many of the closed loop's
	// quality queries the determinism check and the traced pass repeat.
	quality, traced int

	watches []watchSpec
	// stream is ingest-watch's load. On the closed loop it is a side
	// stream that runs before the client starts, so that append and
	// freshness latency are measured on every workload.
	stream stream
}

// stream is an open-loop append schedule and the reader behind it:
// after each append the reader polls every subscriber, then issues its
// one-shot, if any.
type stream struct {
	paths      []string // the files appends take turns on
	batch      int      // records per append
	ratePerSec float64
	oneshots   []shape // cycle k issues oneshots[k % len] with a fresh seed
	repeatEach int     // cycle k repeats its one-shot when k % repeatEach == 1, so the cache can hit
	// minAppends extends the timed phase until this many appends, so the
	// append and freshness percentiles rest on enough samples.
	minAppends int
}

const (
	gaussPath  = "/data/gauss"
	paretoPath = "/data/pareto"
	kvPath     = "/data/kv"
	sidePath   = "/data/side"
	// sideAppends is the length of the closed loop's side stream.
	sideAppends = 120
	blockSize   = 4 << 20 // DFS block size of every workload
	// z95 turns a grouped result's CV into a 95% interval half-width.
	z95 = 1.959964
)

// The filters' cut points come from N(100, 10): P(v > 123.2635) = 1% and
// P(v < 97.4665) = 40%.
func above(t float64) func(float64) bool { return func(v float64) bool { return v > t } }
func below(t float64) func(float64) bool { return func(v float64) bool { return v < t } }

func workloads() map[string]*workload {
	// The closed loop queries three 2M-record files. Its side stream
	// appends to a 1M-record file under one watch in ingest-watch's
	// batches of 10k records, at 10/s, a rate ingest-watch's generator
	// was measured to keep up with; 120 appends leave twelve samples
	// above the p90s.
	threeFiles := []fileSpec{
		{gaussPath, kindGauss, 2_000_000},
		{paretoPath, kindPareto, 2_000_000},
		{kvPath, kindKV, 2_000_000},
		{sidePath, kindGauss, 1_000_000},
	}
	sideWatch := []watchSpec{{shape{label: "side-watch-mean", path: sidePath, stats: []string{"mean"}, sigma: 0.05}, 1}}
	sideStream := stream{paths: []string{sidePath}, batch: 10_000, ratePerSec: 10, minAppends: sideAppends}
	oneshotMean := shape{label: "oneshot-mean", path: gaussPath, stats: []string{"mean"}, sigma: 0.05, filter: "v > 80", keep: above(80)}
	multi := shape{label: "multi", path: gaussPath, stats: []string{"mean", "p50", "p95", "count"}, sigma: 0.01}
	return map[string]*workload{
		// Resampling-, scan- and exact-fallback-bound: tight σ and heavy
		// tails grow samples to tens of thousands of records, and the scan
		// cache holds about a quarter of the decoded working set.
		"deep-resample": {
			name: "deep-resample", files: threeFiles, cacheBytes: 16 << 20, quality: minQueries, traced: 10,
			watches: sideWatch, stream: sideStream,
			// The shapes' latencies form separate clusters; the multi-statistic
			// query runs twice per round so the median falls inside its
			// cluster rather than in a gap between two.
			shapes: []shape{
				{label: "p50-tight", path: gaussPath, stats: []string{"p50"}, sigma: 0.002},
				multi,
				{label: "pareto-mean", path: paretoPath, stats: []string{"mean"}, sigma: 0.02},
				{label: "pareto-p99", path: paretoPath, stats: []string{"p99"}, sigma: 0.02},
				multi,
				{label: "postmap-sel40pct", path: gaussPath, stats: []string{"mean"}, sigma: 0.01,
					filter: "v < 97.4665", keep: below(97.4665), sampler: "post-map"},
			},
		},
		// Write beside read: appends arrive on a schedule while eight
		// subscribers watch three maintained queries and a reader issues
		// one-shots, some of them repeats the result cache can answer.
		"ingest-watch": {
			name: "ingest-watch", quality: 40,
			files: []fileSpec{{gaussPath, kindGauss, 1_000_000}, {kvPath, kindKV, 1_000_000}},
			watches: []watchSpec{
				{shape{label: "watch-mean", path: gaussPath, stats: []string{"mean"}, sigma: 0.05}, 3},
				{shape{label: "watch-mean-p95", path: gaussPath, stats: []string{"mean", "p95"}, sigma: 0.05}, 3},
				{shape{label: "watch-grouped", path: kvPath, stats: []string{"mean"}, sigma: 0.05, grouped: true}, 2},
			},
			// Three of every four one-shots are a filtered mean and one is a
			// grouped mean, each with a fresh seed; the grouped one's 64
			// intervals give the coverage metric many independent draws. One
			// filtered mean in four is asked twice, so a fifth of the
			// one-shots can be served from the result cache.
			stream: stream{paths: []string{gaussPath, kvPath}, batch: 10_000, ratePerSec: 5, repeatEach: 4, minAppends: 150,
				oneshots: []shape{oneshotMean, oneshotMean, oneshotMean,
					{label: "oneshot-grouped", path: kvPath, stats: []string{"mean"}, sigma: 0.05, grouped: true},
				}},
		},
	}
}

// query is one issued operation's spec and its shape.
type query struct {
	shape *shape
	spec  serve.QuerySpec
}

func (s *shape) spec(seed uint64, parallelism int) serve.QuerySpec {
	sp := plan.Spec{
		Path: s.path, Stats: s.stats, Filter: s.filter, Sigma: s.sigma,
		Sampler: s.sampler, Seed: seed, Parallelism: parallelism,
	}
	if s.grouped {
		sp.GroupBy = "key"
	}
	return serve.QuerySpec{Spec: sp}
}

// deployment is one set-up instance of a workload: the cluster, its
// server, the oracle's copy of every file, and the open watches.
type deployment struct {
	w     *workload
	env   *core.Env
	srv   *serve.Server
	files map[string]*dataset
	gens  map[string]*generator
	subs  []subscription
	// oracleBytes is what the oracle's copy of the data holds, which the
	// heap sampler leaves out of the program's heap.
	oracleBytes atomic.Int64
}

// grow adds appended records to the oracle's copy of path.
func (d *deployment) grow(path string, vals []float64, keys []uint8) {
	ds := d.files[path]
	before := ds.bytes()
	ds.add(vals, keys)
	d.oracleBytes.Add(ds.bytes() - before)
}

// subscription is one subscriber of a maintained query.
type subscription struct {
	watch int // index into workload.watches
	id    string
}

// setup generates the workload's files from seed, ingests them through
// the journaled filesystem (which also builds their columnar sidecars),
// starts a server and opens the watches.
func setup(w *workload, seed uint64) (*deployment, error) {
	d, err := build(w, seed)
	if err != nil {
		return nil, err
	}
	return d, d.start(d.env, seed)
}

// build generates and ingests the files.
func build(w *workload, seed uint64) (*deployment, error) {
	env, err := core.NewEnv(core.EnvConfig{BlockSize: blockSize, CacheBytes: w.cacheBytes, Seed: seed})
	if err != nil {
		return nil, err
	}
	d := &deployment{w: w, env: env, files: map[string]*dataset{}, gens: map[string]*generator{}}
	type generated struct {
		data []byte
		vals []float64
		keys []uint8
	}
	out := make([]generated, len(w.files))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, f := range w.files {
		g := newGenerator(f.kind, seed, uint64(i))
		d.gens[f.path] = g
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			out[i].data, out[i].vals, out[i].keys = g.next(f.records)
			<-sem
		}()
	}
	wg.Wait()
	for i, f := range w.files {
		if err := env.FS.WriteFile(f.path, out[i].data); err != nil {
			return nil, fmt.Errorf("ingest %s: %w", f.path, err)
		}
		d.files[f.path] = &dataset{kind: f.kind}
		d.grow(f.path, out[i].vals, out[i].keys)
	}
	return d, nil
}

// start serves env, which is d's cluster or a view of it, and opens the
// watches.
func (d *deployment) start(env *core.Env, seed uint64) error {
	srv, err := serve.New(env, serve.Config{})
	if err != nil {
		return err
	}
	d.srv, d.subs = srv, nil
	for wi := range d.w.watches {
		ws := &d.w.watches[wi]
		for s := 0; s < ws.subscribers; s++ {
			info, _, err := srv.OpenWatch(context.Background(), ws.spec(seed+uint64(1000+wi), 0))
			if err != nil {
				return fmt.Errorf("open watch %s: %w", ws.label, err)
			}
			d.subs = append(d.subs, subscription{watch: wi, id: info.ID})
		}
	}
	return nil
}

// tally accumulates the oracle's verdicts over a set of answers.
type tally struct {
	intervals, covered int // intervals checked, and those containing the reference
	sampled, sigmaMet  int // sampled (not exact) scalar reports, and those with CV ≤ σ
	malformed          int // non-finite or wrong-shape answers
	mismatched         int // exact answers that differ from the reference
	notes              []string
}

func (t *tally) add(o tally) {
	t.intervals += o.intervals
	t.covered += o.covered
	t.sampled += o.sampled
	t.sigmaMet += o.sigmaMet
	t.malformed += o.malformed
	t.mismatched += o.mismatched
	t.notes = append(t.notes, o.notes...)
}

// unlessCached drops the interval and σ counts of a cache hit: it
// repeats an answer already graded.
func (t tally) unlessCached(cached bool) tally {
	if cached {
		t.intervals, t.covered, t.sampled, t.sigmaMet = 0, 0, 0, 0
	}
	return t
}

// answer is what one query or watch poll returned.
type answer struct {
	reports []core.Report
	groups  *core.GroupedReport
}

func answerOf(res serve.QueryResult) answer {
	if res.Groups != nil {
		return answer{groups: res.Groups}
	}
	if len(res.Reports) > 0 {
		return answer{reports: res.Reports}
	}
	return answer{reports: []core.Report{res.Report}}
}

func watchAnswer(info serve.WatchInfo) answer {
	if info.Groups != nil {
		return answer{groups: info.Groups}
	}
	if len(info.Reports) > 0 {
		return answer{reports: info.Reports}
	}
	return answer{reports: []core.Report{info.Report}}
}

// check grades one answer to shape s against the oracle, with every file
// truncated to the record counts in upto (the state the answer covers).
func (d *deployment) check(s *shape, a answer, upto map[string]int) tally {
	var t tally
	ds := d.files[s.path]
	n := upto[s.path]
	bad := func(format string, args ...any) tally {
		t.malformed++
		t.notes = append(t.notes, s.label+": "+fmt.Sprintf(format, args...))
		return t
	}
	if s.grouped {
		if a.groups == nil {
			return bad("grouped query returned no groups")
		}
		refs := ds.groupMeans(n)
		if len(a.groups.Groups) != len(refs) {
			return bad("%d groups, want %d", len(a.groups.Groups), len(refs))
		}
		for k, g := range a.groups.Groups {
			ref, ok := refs[k]
			if !ok {
				return bad("unknown group %q", k)
			}
			if !finite(g.Estimate) || !finite(g.CV) {
				return bad("group %s: non-finite estimate", k)
			}
			t.intervals++
			if math.Abs(g.Estimate-ref) <= z95*g.CV*math.Abs(g.Estimate) {
				t.covered++
			}
		}
		return t
	}
	if a.groups != nil || len(a.reports) != len(s.stats) {
		return bad("%d reports for %d statistics", len(a.reports), len(s.stats))
	}
	for _, r := range a.reports {
		if !finite(r.Estimate) || !finite(r.CILo) || !finite(r.CIHi) || !(r.CILo <= r.CIHi) {
			return bad("%s: non-finite or inverted answer %v [%v, %v]", r.Job, r.Estimate, r.CILo, r.CIHi)
		}
		ref, err := ds.reference(r.Job, s.filter, s.keep, n)
		if err != nil {
			return bad("%s: %v", r.Job, err)
		}
		t.intervals++
		if r.UsedFull {
			if !matches(r.Estimate, ref) {
				t.mismatched++
				t.notes = append(t.notes, fmt.Sprintf("%s %s: exact answer %v, reference %v", s.label, r.Job, r.Estimate, ref))
				continue
			}
			t.covered++
			continue
		}
		t.sampled++
		if r.CV <= s.sigma {
			t.sigmaMet++
		}
		if r.CILo <= ref && ref <= r.CIHi {
			t.covered++
		}
	}
	return t
}

// Command perfbench is the repository's end-to-end benchmark. It
// generates seeded inputs, drives the system through serve.Server,
// grades every answer against its own oracle and prints one JSON result
// line:
//
//	bash perfbench/run.sh --workload deep-resample --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// no tracing installed. With --trace 1 the run then repeats part of its
// work behind timing wrappers and phase replays, and the result holds the
// per-layer metrics instead. BENCHMARK.json at the repository root lists
// the workloads and metrics; perfbench/README.md explains them.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/colscan"
	"repro/internal/core"
	"repro/internal/jobs"
	"repro/internal/serve"
)

// setupRepeats is how many times a run builds its deployment; setup_s is
// the median, and the last build serves the run.
const setupRepeats = 3

func main() {
	name := flag.String("workload", "", "workload: deep-resample or ingest-watch")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	w := workloads()[*name]
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

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

// metricSet collects named metrics, refusing values JSON cannot carry.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) {
	if !finite(v) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

func run(w *workload, seed uint64, dur time.Duration, traced bool) (*result, error) {
	// Build the deployment several times; the last build serves the run.
	var setupS []float64
	var d *deployment
	for i := 0; i < setupRepeats; i++ {
		d = nil
		runtime.GC()
		start := time.Now()
		nd, err := setup(w, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		d = nd
	}
	e2e := metricSet{}
	e2e.set("setup_s", "s", pct(setupS, 50))

	notes := &tally{}
	exactMs, err := d.crossCheck(notes)
	if err != nil {
		return nil, err
	}

	// The timed phase. The heap sampler stops before any grading, and it
	// leaves out the oracle's own copy of the data.
	runtime.GC()
	var lt loadResult
	heap := startHeapSampler(&d.oracleBytes)
	if w.shapes == nil {
		lt = d.ingestLoop(seed, dur)
	} else {
		// The side stream runs first: every seed's files have the same
		// sizes, so it meets the same heap whatever the queries do. The
		// client then starts from a collected heap.
		side := d.ingestLoop(seed, 0)
		runtime.GC()
		lt = d.closedLoop(seed, dur)
		lt.merge(side)
	}
	e2e.set("heap_peak_mb", "MiB", heap.stop()/(1<<20))
	d.gradeTimed(&lt)

	var q qualityResult
	if w.shapes == nil {
		// A second deployment from the same seed replays the first
		// appends for the quality set and the determinism check.
		spare, err := setup(w, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		q = spare.ingestQuality(seed, lt)
	} else {
		q = d.queryQuality(seed, lt)
	}
	notes.add(lt.grades)
	notes.add(q.grades)

	e2e.set("query_p50_ms", "ms", pct(lt.queryMs, 50))
	e2e.set("query_p90_ms", "ms", pct(lt.queryMs, 90))
	e2e.set("queries_per_s", "1/s", float64(len(lt.queryMs))/lt.elapsed.Seconds())
	e2e.set("ci_coverage", "share", ratio(float64(q.grades.covered), float64(q.grades.intervals)))
	e2e.set("sigma_met_share", "share", ratio(float64(q.grades.sigmaMet), float64(q.grades.sampled)))
	e2e.set("input_fraction", "share", ratio(q.recordsRead, q.recordsQueried))
	failed := lt.failed + lt.grades.malformed
	e2e.set("success_rate", "share", 1-ratio(float64(failed), float64(lt.attempted)))
	e2e.set("append_p50_ms", "ms", pct(lt.appendMs, 50))
	e2e.set("append_p90_ms", "ms", pct(lt.appendMs, 90))
	e2e.set("fresh_p50_ms", "ms", pct(lt.freshMs, 50))
	e2e.set("fresh_p90_ms", "ms", pct(lt.freshMs, 90))
	e2e.set("answers_repeated_share", "share", 1-ratio(float64(q.differing), float64(q.compared)))

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations (%d queries, %d appends) in %.1fs, %d failed; quality set %d intervals, %d sampled reports\n",
		w.name, seed, lt.attempted, len(lt.queryMs), len(lt.appendMs), lt.elapsed.Seconds(), failed, q.grades.intervals, q.grades.sampled)
	ops := lt.ops
	for _, cy := range lt.cycles {
		ops = append(ops, cy.oneshots...)
	}
	printShapes(ops)
	fmt.Fprintf(os.Stderr, "perfbench: determinism: %d of %d answers did not repeat bit for bit when run again with the same seed\n", q.differing, q.compared)
	correct := notes.mismatched == 0 && q.deterministic
	for _, n := range notes.notes {
		fmt.Fprintf(os.Stderr, "perfbench: %s\n", n)
	}
	res := &result{Correct: correct, Attempted: lt.attempted, Failed: failed, Metrics: e2e}
	if !traced {
		return res, nil
	}
	layers, faithful, err := traceRun(d, seed, lt, q, exactMs)
	if err != nil {
		return nil, err
	}
	res.Metrics = layers
	res.Correct = correct && faithful
	return res, nil
}

// loadResult is what the timed phase measured.
type loadResult struct {
	elapsed   time.Duration
	attempted int
	failed    int // errors and refusals
	grades    tally

	queryMs   []float64 // one-shot latency, issue to answer
	waitMs    []float64 // one-shot latency minus the server's own execution time
	appendMs  []float64 // append latency from the append's due time
	freshMs   []float64 // due time until every subscriber holds a covering report
	lagMs     []float64 // how late the generator issued each append
	refreshMs []float64 // watch polls that paid a refresh

	ops    []op    // closed loop: every one-shot, in issue order
	cycles []cycle // ingest-watch: every append cycle
	stats  serve.Stats
}

// op is one one-shot query and its outcome.
type op struct {
	idx int
	q   query
	lat time.Duration
	res serve.QueryResult
	err error
}

// querySeed gives every (stream, index) its own query seed: stream 0 is
// the closed loop's client, stream 99 ingest-watch's reader.
func querySeed(seed uint64, stream, idx int) uint64 {
	x := seed*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(idx) + 1
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// nextQuery is the closed loop's idx-th query. It walks the shape list
// round robin, so every run sees the same mix and only the query seeds
// change with the workload seed.
func (d *deployment) nextQuery(seed uint64, idx int) query {
	s := &d.w.shapes[idx%len(d.w.shapes)]
	return query{shape: s, spec: s.spec(querySeed(seed, 0, idx), 0)}
}

// minQueries is the fewest one-shots the closed loop completes, so that
// query_p90_ms has at least ten samples above it.
const minQueries = 100

// closedLoop runs the workload's client against the server: it sends
// its next query when the previous one is answered. The loop lasts dur,
// and longer if needed to complete minQueries.
func (d *deployment) closedLoop(seed uint64, dur time.Duration) loadResult {
	var lt loadResult
	start := time.Now()
	for i := 0; time.Since(start) < dur || i < minQueries; i++ {
		q := d.nextQuery(seed, i)
		t0 := time.Now()
		res, err := d.srv.Query(context.Background(), q.spec)
		lt.ops = append(lt.ops, op{idx: i, q: q, lat: time.Since(t0), res: res, err: err})
	}
	lt.elapsed = time.Since(start)
	return lt
}

// merge folds the side stream's measurements into the closed loop's.
func (lt *loadResult) merge(side loadResult) {
	lt.attempted += side.attempted
	lt.failed += side.failed
	lt.grades.add(side.grades)
	lt.appendMs, lt.freshMs, lt.lagMs, lt.refreshMs = side.appendMs, side.freshMs, side.lagMs, side.refreshMs
	lt.cycles = side.cycles
	lt.stats = side.stats
}

// gradeTimed counts the timed phase's operations and checks each
// answer's shape, finiteness and exact value against the oracle.
// Coverage and σ are graded on the quality set only.
func (d *deployment) gradeTimed(lt *loadResult) {
	var t tally
	counts := d.fullCounts()
	for _, o := range lt.ops {
		lt.attempted++
		if o.err != nil {
			lt.failed++
			t.notes = append(t.notes, fmt.Sprintf("%s: %v", o.q.shape.label, o.err))
			continue
		}
		lt.queryMs = append(lt.queryMs, ms(o.lat))
		lt.waitMs = append(lt.waitMs, ms(o.lat-o.res.Elapsed))
		t.add(d.check(o.q.shape, answerOf(o.res), counts))
	}
	for _, cy := range lt.cycles {
		t.add(d.gradeCycle(cy, true))
	}
	t.intervals, t.covered, t.sampled, t.sigmaMet = 0, 0, 0, 0
	lt.grades.add(t)
}

// fullCounts is every file's current record count.
func (d *deployment) fullCounts() map[string]int {
	out := make(map[string]int, len(d.files))
	for p, ds := range d.files {
		out[p] = len(ds.vals)
	}
	return out
}

// qualityResult holds the seed-determined metrics.
type qualityResult struct {
	grades         tally
	recordsRead    float64 // simcost.RecordsRead summed over the quality set
	recordsQueried float64 // records in the queried files, summed the same way
	deterministic  bool    // the seed-determined metrics and plans repeated
	compared       int     // answers the determinism check compared
	differing      int     // of which did not repeat bit for bit
	again          []op    // closed loop: the first w.traced queries run again
	cycles         []cycle // ingest-watch: the replayed cycles
}

// queryQuality grades the closed loop's first w.quality queries. One
// client ran them one at a time, so each one's simcost delta is its own.
// For the determinism check the first w.traced of them are run again on
// a fresh server and compared with the timed phase's answers.
func (d *deployment) queryQuality(seed uint64, lt loadResult) qualityResult {
	var q qualityResult
	q.grades, q.recordsRead, q.recordsQueried = d.gradeSet(lt.ops[:min(d.w.quality, len(lt.ops))])
	srv, err := serve.New(d.env, serve.Config{})
	if err != nil {
		q.grades.malformed++
		q.grades.notes = append(q.grades.notes, err.Error())
		return q
	}
	for i := 0; i < d.w.traced && i < len(lt.ops); i++ {
		qq := d.nextQuery(seed, i)
		t0 := time.Now()
		res, err := srv.Query(context.Background(), qq.spec)
		q.again = append(q.again, op{idx: i, q: qq, lat: time.Since(t0), res: res, err: err})
	}
	q.deterministic, q.differing = d.sameSets(lt.ops[:len(q.again)], q.again, &q.grades)
	q.compared = len(q.again)
	return q
}

// gradeSet grades one-shot answers against the oracle and sums the
// records they read and the records of the files they queried.
func (d *deployment) gradeSet(ops []op) (t tally, read, queried float64) {
	counts := d.fullCounts()
	for _, o := range ops {
		if o.err != nil {
			t.malformed++
			t.notes = append(t.notes, fmt.Sprintf("quality %s: %v", o.q.shape.label, o.err))
			continue
		}
		t.add(d.check(o.q.shape, answerOf(o.res), counts))
		read += float64(o.res.Cost.RecordsRead)
		queried += float64(counts[o.q.shape.path])
	}
	return t, read, queried
}

// sameSets is the determinism check over two runs of the same one-shot
// specs: their seed-determined metrics, the records they read and every
// report's plan (B, PlannedN) and growth generations must agree. It
// also counts the answers that differ in any bit.
func (d *deployment) sameSets(first, again []op, notes *tally) (same bool, differing int) {
	a, readA, _ := d.gradeSet(first)
	b, readB, _ := d.gradeSet(again)
	same = sameMetrics(a, b, notes)
	if readA != readB {
		same = false
		notes.notes = append(notes.notes, fmt.Sprintf("determinism: the queries read %v records, %v when run again", readA, readB))
	}
	for i := range first {
		x, y := first[i], again[i]
		what := fmt.Sprintf("%s (query %d)", x.q.shape.label, x.idx)
		if (x.err == nil) != (y.err == nil) {
			same = false
			differing++
			notes.notes = append(notes.notes, fmt.Sprintf("determinism: %s failed in one run only: %v / %v", what, x.err, y.err))
			continue
		}
		if x.err != nil {
			continue
		}
		ok, bits := sameAnswer(what, answerOf(x.res), answerOf(y.res), notes)
		same = same && ok
		if !bits {
			differing++
		}
	}
	return same, differing
}

// sameAnswer compares two answers to the same spec and seed. plan is
// false, and a note says why, when a report's B, PlannedN or growth
// generations differ; bits is false when the answers differ in any bit.
func sameAnswer(what string, x, y answer, notes *tally) (plan, bits bool) {
	px, py := planOf(x), planOf(y)
	plan, bits = px == py, fingerprint(x) == fingerprint(y)
	if !plan {
		notes.notes = append(notes.notes, fmt.Sprintf("determinism: %s was planned or grown differently when run again: %s, then %s", what, px, py))
	}
	if !bits {
		notes.notes = append(notes.notes, fmt.Sprintf("determinism: %s answered differently when run again:\n  first %s\n  again %s", what, fingerprint(x), fingerprint(y)))
	}
	return plan, bits
}

// planOf renders what the determinism check requires to repeat exactly
// besides the graded counts: each report's bootstrap count, planned
// sample size and growth generations (a grouped report has only the
// last).
func planOf(a answer) string {
	if a.groups != nil {
		return fmt.Sprintf("[grouped iterations=%d]", a.groups.Iterations)
	}
	out := ""
	for _, r := range a.reports {
		out += fmt.Sprintf("[%s B=%d plannedN=%d iterations=%d]", r.Job, r.B, r.PlannedN, r.Iterations)
	}
	return out
}

// sameMetrics compares the seed-determined counts of two gradings.
func sameMetrics(a, b tally, notes *tally) bool {
	if a.intervals == b.intervals && a.covered == b.covered && a.sampled == b.sampled && a.sigmaMet == b.sigmaMet {
		return true
	}
	notes.notes = append(notes.notes, fmt.Sprintf("determinism: seed-determined counts differ between runs: covered %d/%d vs %d/%d, σ met %d/%d vs %d/%d",
		a.covered, a.intervals, b.covered, b.intervals, a.sigmaMet, a.sampled, b.sigmaMet, b.sampled))
	return false
}

// printShapes writes each query shape's latency quartiles to standard
// error, to show which shapes set the percentiles.
func printShapes(ops []op) {
	byShape := map[string][]float64{}
	var labels []string
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		label := o.q.shape.label
		if o.res.Cached {
			label += " (cached)"
		}
		if _, ok := byShape[label]; !ok {
			labels = append(labels, label)
		}
		byShape[label] = append(byShape[label], ms(o.lat))
	}
	sort.Strings(labels)
	for _, l := range labels {
		v := byShape[l]
		fmt.Fprintf(os.Stderr, "perfbench:   %-18s n=%-4d p25=%8.1fms p50=%8.1fms p75=%8.1fms\n", l, len(v), pct(v, 25), pct(v, 50), pct(v, 75))
	}
}

// fingerprint renders an answer with every float at full precision, so
// equal fingerprints mean bit-identical reports.
func fingerprint(a answer) string {
	if a.groups != nil {
		return fmt.Sprintf("%+v", *a.groups)
	}
	return fmt.Sprintf("%+v", a.reports)
}

// crossCheck runs the program's exact job once per file and compares it
// with the oracle's mean, returning each job's wall time.
func (d *deployment) crossCheck(t *tally) ([]float64, error) {
	var times []float64
	paths := make([]string, 0, len(d.files))
	for p := range d.files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		ds := d.files[p]
		job := jobs.Mean()
		if ds.kind == kindKV {
			job.Parse = func(line string) (float64, error) {
				_, v, err := colscan.ParseKVString(line)
				return v, err
			}
		}
		start := time.Now()
		got, n, err := core.RunExactJob(d.env, job, p, 0)
		times = append(times, ms(time.Since(start)))
		if err != nil {
			return nil, fmt.Errorf("exact job over %s: %w", p, err)
		}
		want, _ := ds.reference("mean", "", nil, len(ds.vals))
		if n != len(ds.vals) || !matches(got, want) {
			t.mismatched++
			t.notes = append(t.notes, fmt.Sprintf("cross-check %s: exact job mean %v over %d records, oracle %v over %d", p, got, n, want, len(ds.vals)))
		}
	}
	return times, nil
}

// heapSampler tracks the peak live Go heap, as of each garbage
// collection, while the timed phase runs, less the bytes the oracle's
// own copy of the data holds at the time.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler(oracle *atomic.Int64) *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		peak := 0.0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			peak = math.Max(peak, float64(sample[0].Value.Uint64())-float64(oracle.Load()))
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

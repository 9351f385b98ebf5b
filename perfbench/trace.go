package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/aes"
	"repro/internal/colscan"
	"repro/internal/colseg"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/dfs"
	"repro/internal/plan"
	"repro/internal/sampling"
	"repro/internal/serve"
	"repro/internal/simcost"
)

// The traced run. Spans come only from the benchmark's own code: a root
// span around each serve call, child spans from timing wrappers
// installed through public seams (a dfs.View as core.Env.Data, a
// colscan.ColumnStore around the colseg sidecar reader), and replay
// spans that re-run a query's phases through their public functions
// right after it. Counters the program keeps are read around each root
// call. Spans stay in memory and are written out when the run ends.

// span is one timed interval. Spans of one operation share Op; Parent
// indexes the span that caused this one, -1 for a root. The data reads
// under one root fold into one span per read kind, with Calls counting
// them and Busy their summed time, so a query's tens of thousands of
// record seeks do not each cost a span.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"`
	Start  float64 `json:"startMs"` // since the traced pass began
	End    float64 `json:"endMs"`
	Busy   float64 `json:"busyMs"`
	Calls  int     `json:"calls"`
	Bytes  int64   `json:"bytes,omitempty"`
}

// tracer records spans. The traced pass issues one serve call at a time,
// so every wrapper span belongs to the root span open at the moment.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	root   int // open root span, -1 between calls
	ops    int
	folded map[foldKey]int // span index of each root's folded read kind
}

type foldKey struct {
	root int
	name string
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), root: -1, folded: map[foldKey]int{}}
}

// add appends a finished span. Caller holds t.mu.
func (t *tracer) add(name string, op, parent int, start, end time.Time, bytes int64) int {
	s, e := ms(start.Sub(t.t0)), ms(end.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: e, Busy: e - s, Calls: 1, Bytes: bytes})
	return len(t.spans) - 1
}

// call runs one serve call as a new operation's root span and returns
// the span's index.
func (t *tracer) call(name string, fn func()) int {
	t.mu.Lock()
	t.ops++
	i := t.add(name, t.ops, -1, time.Now(), time.Now(), 0)
	t.root = i
	t.mu.Unlock()
	fn()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	t.spans[i].Busy = t.spans[i].End - t.spans[i].Start
	t.root = -1
	return i
}

func (t *tracer) now() float64 { return ms(time.Since(t.t0)) }

// timed runs fn as a replay span linked to root's operation and returns
// its milliseconds.
func (t *tracer) timed(name string, root int, fn func()) float64 {
	start := time.Now()
	fn()
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.add(name, t.spans[root].Op, root, start, end, 0)
	return ms(end.Sub(start))
}

// record adds one wrapper call under the open root; fold merges it into
// the root's span of the same name.
func (t *tracer) record(name string, start time.Time, bytes int64, fold bool) {
	end := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	op := 0
	if t.root >= 0 {
		op = t.spans[t.root].Op
	}
	k := foldKey{t.root, name}
	if i, ok := t.folded[k]; ok && fold {
		sp := &t.spans[i]
		sp.End = ms(end.Sub(t.t0))
		sp.Busy += ms(end.Sub(start))
		sp.Calls++
		sp.Bytes += bytes
		return
	}
	i := t.add(name, op, t.root, start, end, bytes)
	if fold {
		t.folded[k] = i
	}
}

// selfMs is each span name's busy time minus the busy time of the
// children inside its interval.
func (t *tracer) selfMs() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.Busy
		if p := s.Parent; p >= 0 && s.Start >= t.spans[p].Start && s.End <= t.spans[p].End {
			self[t.spans[p].Name] -= s.Busy
		}
	}
	return self
}

// timingView times the data reads of one-shot queries.
type timingView struct {
	dfs.View
	t *tracer
}

func (v timingView) ReadAt(path string, off int64, p []byte) (int, error) {
	start := time.Now()
	n, err := v.View.ReadAt(path, off, p)
	v.t.record("dfs.ReadAt", start, int64(n), true)
	return n, err
}

func (v timingView) ReadFile(path string) ([]byte, error) {
	start := time.Now()
	b, err := v.View.ReadFile(path)
	v.t.record("dfs.ReadFile", start, int64(len(b)), true)
	return b, err
}

func (v timingView) ReadLineAt(path string, pos int64, chunk int) (string, int64, error) {
	start := time.Now()
	line, lineStart, err := v.View.ReadLineAt(path, pos, chunk)
	v.t.record("dfs.ReadLineAt", start, int64(len(line)), true)
	return line, lineStart, err
}

func (v timingView) ReadSidecarAt(path string, off int64, p []byte) (int, error) {
	start := time.Now()
	n, err := v.View.ReadSidecarAt(path, off, p)
	v.t.record("dfs.ReadSidecarAt", start, int64(n), true)
	return n, err
}

// timingStore times the scan cache's sidecar loads, one span each.
type timingStore struct {
	inner colscan.ColumnStore
	t     *tracer
}

func (s timingStore) LoadColumns(key colscan.BlockKey) (*colscan.Block, bool, error) {
	start := time.Now()
	b, ok, err := s.inner.LoadColumns(key)
	s.t.record("colseg.LoadColumns", start, key.Length, false)
	return b, ok, err
}

// counters are the program's own counters, read around each root call.
type counters struct {
	cost    simcost.Snapshot
	scan    colscan.CacheStats
	journal dfs.JournalStats
}

func readCounters(env *core.Env) counters {
	return counters{cost: env.Metrics.Snapshot(), scan: env.Scan.Stats(), journal: env.FS.JournalStats()}
}

func (c counters) sub(o counters) counters {
	return counters{
		cost: c.cost.Sub(o.cost),
		scan: colscan.CacheStats{
			Hits: c.scan.Hits - o.scan.Hits, Misses: c.scan.Misses - o.scan.Misses,
			SidecarReads: c.scan.SidecarReads - o.scan.SidecarReads, SidecarErrors: c.scan.SidecarErrors - o.scan.SidecarErrors,
		},
		journal: dfs.JournalStats{Commits: c.journal.Commits - o.journal.Commits, Bytes: c.journal.Bytes - o.journal.Bytes},
	}
}

func (c counters) add(o counters) counters {
	return counters{
		cost: c.cost.Add(o.cost),
		scan: colscan.CacheStats{
			Hits: c.scan.Hits + o.scan.Hits, Misses: c.scan.Misses + o.scan.Misses,
			SidecarReads: c.scan.SidecarReads + o.scan.SidecarReads, SidecarErrors: c.scan.SidecarErrors + o.scan.SidecarErrors,
		},
		journal: dfs.JournalStats{Commits: c.journal.Commits + o.journal.Commits, Bytes: c.journal.Bytes + o.journal.Bytes},
	}
}

// Driver constants the pilot replay mirrors: core.Options defaults for
// the pilot fraction and its floor and cap, and the seed offset the
// driver hands SSABE.
const (
	pilotProbe    = 256
	pilotFraction = 0.01
	minPilot      = 512
	maxPilot      = 65536
	ssabeSeedSalt = 17
)

// phaseTimes is one query's replayed phases.
type phaseTimes struct {
	exec             float64 // the server's execution time for the query
	pilot, apply     float64
	ssabeP1, ssabePN float64
	growP1, growPN   float64
	updates          int64
	kept, raw        int // pilot records the plan's filter kept, of those drawn
	filtered         bool
	faithful         bool
	sampledReports   int
	// The replayed plans and the reports' own, for the unfaithful note.
	planB, planN, repB, repN []int
}

// tracedPass collects what the traced run measured.
type tracedPass struct {
	t              *tracer
	queries        int
	sums           counters
	execMs         []float64
	callMs         []float64 // serve.Query root spans
	reports        []core.Report
	phases         []phaseTimes
	unfaith        []string
	appendMs       []float64 // dfs appends replayed on a scratch filesystem
	appends        int
	journal        int64
	refreshes      int
	refreshRecords int64
}

// instrument installs the timing wrappers on d's cluster and returns
// the view of it whose one-shot data reads go through the timing view.
func instrument(d *deployment, t *tracer) *core.Env {
	d.env.Scan.SetStore(timingStore{inner: colseg.NewReader(d.env.FS), t: t})
	return d.env.WithData(timingView{View: d.env.FS, t: t})
}

// afterQuery records a traced one-shot and replays its phases.
func (p *tracedPass) afterQuery(d *deployment, root int, q query, res serve.QueryResult, before counters) {
	p.sums = p.sums.add(readCounters(d.env).sub(before))
	p.queries++
	p.execMs = append(p.execMs, ms(res.Elapsed))
	p.callMs = append(p.callMs, p.t.spans[root].Busy)
	if res.Groups != nil || res.Cached {
		return
	}
	reps := answerOf(res).reports
	p.reports = append(p.reports, reps...)
	ph, err := replayPhases(d, p.t, root, q, reps)
	ph.exec = ms(res.Elapsed)
	if err != nil {
		p.unfaith = append(p.unfaith, fmt.Sprintf("%s: replay failed: %v", q.shape.label, err))
		return
	}
	if !ph.faithful {
		p.unfaith = append(p.unfaith, fmt.Sprintf("%s (seed %d): replay planned B=%v n=%v, report has B=%v n=%v",
			q.shape.label, q.spec.Seed, ph.planB, ph.planN, ph.repB, ph.repN))
	}
	p.phases = append(p.phases, ph)
}

// replayPhases re-runs one scalar query's phases the way the driver
// runs them: the pilot (pre-map sampler, columnar, with the plan's
// filter applied to each draw), SSABE per statistic at Parallelism 1
// and at nproc, and delta maintenance grown to the report's B and sample
// size. The replayed plan must reproduce every sampled report's B and
// PlannedN.
func replayPhases(d *deployment, t *tracer, root int, q query, reps []core.Report) (phaseTimes, error) {
	ph := phaseTimes{faithful: true}
	pq, err := core.PreparePlan(q.spec.Spec, core.Options{})
	if err != nil {
		return ph, err
	}
	path, seed, prog := pq.Spec.Path, pq.Opts.Seed, pq.Prog
	format := pq.Jobs[0].ScanFormat
	if prog != nil {
		format = prog.InputFormat()
		ph.filtered = prog.HasFilter()
	}
	var pilot []float64
	var estTotal int64
	var perr error
	sc := plan.NewScratch()
	ph.pilot = t.timed("replay.sampling.pilot", root, func() {
		ps, err := sampling.NewPreMap(d.env.View(), path, 0, seed)
		if err != nil {
			perr = err
			return
		}
		if perr = ps.EnableColumnar(d.env.Scan, format); perr != nil {
			return
		}
		draw := func(n int) error {
			var raw, kept colscan.Cols
			for n > 0 {
				raw.Reset()
				got, serr := ps.SampleCols(n, &raw)
				if got > 0 {
					if prog == nil {
						pilot = append(pilot, raw.Vals...)
						n -= got
					} else {
						kept.Reset()
						start := time.Now()
						k, aerr := prog.Apply(sc, &raw, &kept, false)
						ph.apply += ms(time.Since(start))
						if aerr != nil {
							return aerr
						}
						ph.raw += got
						ph.kept += k
						pilot = append(pilot, kept.Vals...)
						n -= k
					}
				}
				if serr != nil {
					return serr
				}
				if prog == nil {
					return nil
				}
			}
			return nil
		}
		effTotal := func() int64 {
			raw := ps.EstimatedTotalRecords()
			if prog == nil || !prog.HasFilter() || ps.Taken() == 0 {
				return raw
			}
			return max(1, int64(float64(raw)*float64(len(pilot))/float64(ps.Taken())))
		}
		if perr = draw(pilotProbe); perr != nil {
			return
		}
		n := min(max(int(pilotFraction*float64(effTotal())), minPilot), maxPilot)
		if n > len(pilot) {
			if err := draw(n - len(pilot)); err != nil && !errors.Is(err, sampling.ErrExhausted) {
				perr = err
				return
			}
		}
		estTotal = effTotal()
	})
	if perr != nil {
		return ph, perr
	}
	nproc := runtime.GOMAXPROCS(0)
	for i, job := range pq.Jobs {
		cfg := aes.Config{Reducer: job.Reducer, Sigma: pq.Opts.Sigma, Seed: seed + ssabeSeedSalt,
			Metrics: &simcost.Metrics{}, Key: job.Name}
		var plans [2]aes.Plan
		var errs [2]error
		for k, par := range []int{1, nproc} {
			cfg.Parallelism = par
			el := t.timed(fmt.Sprintf("replay.aes.SSABE.p%d", par), root, func() { plans[k], errs[k] = aes.SSABE(pilot, estTotal, cfg) })
			if k == 0 {
				ph.ssabeP1 += el
			} else {
				ph.ssabePN += el
			}
		}
		if errs[0] != nil || errs[1] != nil {
			return ph, errors.Join(errs[0], errs[1])
		}
		if plans[0].B != plans[1].B || plans[0].N != plans[1].N {
			ph.faithful = false
		}
		if i >= len(reps) || reps[i].UsedFull {
			continue
		}
		rep := reps[i]
		ph.sampledReports++
		ph.planB, ph.planN = append(ph.planB, plans[1].B), append(ph.planN, plans[1].N)
		ph.repB, ph.repN = append(ph.repB, rep.B), append(ph.repN, rep.PlannedN)
		if plans[1].B != rep.B || plans[1].N != rep.PlannedN {
			ph.faithful = false
		}
		vals := d.files[path].population(len(d.files[path].vals), q.shape.keep)
		sample := stride(vals, rep.SampleSize)
		for k, par := range []int{1, nproc} {
			m, err := delta.New(delta.Config{Reducer: job.Reducer, B: rep.B, Seed: seed, Key: job.Name, Parallelism: par})
			if err != nil {
				return ph, err
			}
			first := min(rep.PlannedN, len(sample))
			el := t.timed(fmt.Sprintf("replay.delta.Grow.p%d", par), root, func() {
				if err = m.Grow(sample[:first]); err == nil && len(sample) > first {
					err = m.Grow(sample[first:])
				}
			})
			if err != nil {
				return ph, err
			}
			if k == 0 {
				ph.growP1 += el
			} else {
				ph.growPN += el
				ph.updates += m.Updates()
			}
		}
	}
	return ph, nil
}

// stride picks n values spread evenly over vals.
func stride(vals []float64, n int) []float64 {
	n = min(n, len(vals))
	out := make([]float64, n)
	for i := range out {
		out[i] = vals[int(int64(i)*int64(len(vals))/int64(n))]
	}
	return out
}

// traceRun is the traced pass: it repeats the quality set behind the
// timing wrappers, checks that every answer is bit-identical to the
// untraced run's, and derives the per-layer metrics.
func traceRun(d *deployment, seed uint64, lt loadResult, q qualityResult, exactMs []float64) (metricSet, bool, error) {
	t := newTracer()
	p := &tracedPass{t: t}
	w := d.w
	var untracedMs []float64
	var identical bool
	if w.shapes != nil {
		srv, err := serve.New(instrument(d, t), serve.Config{})
		if err != nil {
			return nil, false, err
		}
		identical = true
		for i, uo := range q.again {
			var res serve.QueryResult
			var qerr error
			before := readCounters(d.env)
			root := t.call("serve.Query", func() { res, qerr = srv.Query(context.Background(), uo.q.spec) })
			if qerr != nil || uo.err != nil {
				if (qerr == nil) != (uo.err == nil) {
					identical = false
				}
				continue
			}
			untracedMs = append(untracedMs, ms(uo.lat))
			if fingerprint(answerOf(res)) != fingerprint(answerOf(uo.res)) {
				identical = false
				p.unfaith = append(p.unfaith, fmt.Sprintf("traced query %d (%s) answered differently from the untraced run", i, uo.q.shape.label))
			}
			p.afterQuery(d, root, uo.q, res, before)
		}
	} else {
		// A fresh deployment from the same seed replays the quality
		// cycles with tracing on; its answers must equal those of the
		// untraced replay of the same cycles.
		td, err := build(w, seed)
		if err != nil {
			return nil, false, err
		}
		if err := td.start(instrument(td, t), seed); err != nil {
			return nil, false, err
		}
		scratch, err := scratchFS(td)
		if err != nil {
			return nil, false, err
		}
		tc := &tracedCycles{d: td, p: p, scratch: scratch}
		cycles, rl := td.replayCycles(seed, tc)
		var notes tally
		_, _, differing := td.sameCycles(q.cycles, cycles, &notes)
		identical = rl.failed == 0 && len(cycles) == w.quality && differing == 0
		p.unfaith = append(p.unfaith, notes.notes...)
		for _, cy := range q.cycles {
			for _, o := range cy.oneshots {
				if o.err == nil {
					untracedMs = append(untracedMs, ms(o.lat))
				}
			}
		}
	}
	m := p.layers(lt, exactMs)
	m.set("bench.trace_overhead_ms", "ms", pct(p.callMs, 50)-pct(untracedMs, 50))
	m.set("bench.nondeterministic_answers", "count", float64(q.differing))
	if err := writeTrace(w.name, seed, t); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	}
	for _, n := range p.unfaith {
		fmt.Fprintf(os.Stderr, "perfbench: trace: %s\n", n)
	}
	faithful := identical && len(p.unfaith) == 0
	if !faithful {
		fmt.Fprintln(os.Stderr, "perfbench: the trace is unfaithful; per-layer metrics withheld")
		only := metricSet{}
		only["bench.trace_overhead_ms"] = m["bench.trace_overhead_ms"]
		return only, false, nil
	}
	return m, true, nil
}

// layers turns the traced pass and the timed phase into the per-layer
// metrics. Every ratio names its base in BENCHMARK.json.
func (p *tracedPass) layers(lt loadResult, exactMs []float64) metricSet {
	m := metricSet{}
	nq := float64(p.queries)
	st := lt.stats
	m.set("serve.admission_wait_p50_ms", "ms", pct(lt.waitMs, 50))
	m.set("serve.admission_wait_p90_ms", "ms", pct(lt.waitMs, 90))
	m.set("serve.result_cache_hit_ratio", "share", ratio(float64(st.CacheHits), float64(st.Queries)))
	m.set("serve.refreshes_per_append", "count", ratio(float64(st.RefreshesServed), float64(st.Appends)))
	m.set("serve.rejected", "count", float64(st.Rejected))

	m.set("live.refresh_p50_ms", "ms", pct(lt.refreshMs, 50))
	m.set("live.refresh_p90_ms", "ms", pct(lt.refreshMs, 90))
	m.set("live.refresh_records", "count", ratio(float64(p.refreshRecords), float64(p.refreshes)))

	var sampled []core.Report
	full := 0
	for _, r := range p.reports {
		if r.UsedFull {
			full++
		} else {
			sampled = append(sampled, r)
		}
	}
	var rounds, bs, ns []float64
	var sampleSum, plannedSum float64
	for _, r := range sampled {
		rounds = append(rounds, float64(r.Iterations))
		bs = append(bs, float64(r.B))
		ns = append(ns, float64(r.PlannedN))
		sampleSum += float64(r.SampleSize)
		plannedSum += float64(r.PlannedN)
	}
	m.set("core.exec_p50_ms", "ms", pct(p.execMs, 50))
	m.set("core.rounds_mean", "count", mean(rounds))
	m.set("core.overrun_ratio", "ratio", ratio(sampleSum, plannedSum))
	m.set("core.exact_fallback_share", "share", ratio(float64(full), float64(len(p.reports))))

	var pilot, apply, ssabe, ssabeP1, growP1, growPN, residual, sel []float64
	var ssabeSum, execSum float64
	var updates int64
	for _, ph := range p.phases {
		pilot = append(pilot, ph.pilot)
		ssabe = append(ssabe, ph.ssabePN)
		ssabeP1 = append(ssabeP1, ph.ssabeP1)
		ssabeSum += ph.ssabePN
		if ph.sampledReports > 0 {
			growP1 = append(growP1, ph.growP1)
			growPN = append(growPN, ph.growPN)
			residual = append(residual, ph.exec-ph.pilot-ph.ssabePN-ph.growPN)
		}
		if ph.filtered {
			apply = append(apply, ph.apply)
			sel = append(sel, ratio(float64(ph.kept), float64(ph.raw)))
		}
		updates += ph.updates
	}
	for _, ph := range p.phases {
		execSum += ph.exec
	}
	m.set("core.residual_p50_ms", "ms", pct(residual, 50))
	m.set("sampling.pilot_p50_ms", "ms", pct(pilot, 50))
	m.set("sampling.records_read_per_query", "count", ratio(float64(p.sums.cost.RecordsRead), nq))
	m.set("sampling.seeks_per_query", "count", ratio(float64(p.sums.cost.DiskSeeks), nq))
	m.set("aes.ssabe_p50_ms", "ms", pct(ssabe, 50))
	m.set("aes.ssabe_share", "share", ratio(ssabeSum, execSum))
	m.set("aes.planned_b_mean", "count", mean(bs))
	m.set("aes.planned_n_p50", "count", pct(ns, 50))
	m.set("aes.ssabe_p1_ms", "ms", pct(ssabeP1, 50))
	m.set("aes.ssabe_pN_ms", "ms", pct(ssabe, 50))
	m.set("delta.grow_p1_ms", "ms", pct(growP1, 50))
	m.set("delta.grow_pN_ms", "ms", pct(growPN, 50))
	m.set("delta.grow_p50_ms", "ms", pct(growPN, 50))
	m.set("delta.updates_per_query", "count", ratio(float64(updates), nq))
	m.set("plan.apply_p50_ms", "ms", pct(apply, 50))
	m.set("plan.selectivity", "share", mean(sel))

	m.set("mr.job_startups_per_query", "count", ratio(float64(p.sums.cost.JobStartups), nq))
	m.set("mr.map_tasks_per_query", "count", ratio(float64(p.sums.cost.MapTasks), nq))
	m.set("mr.bytes_shuffled_per_query", "bytes", ratio(float64(p.sums.cost.BytesShuffled), nq))
	m.set("mr.exact_ms", "ms", mean(exactMs))

	m.set("colscan.hit_ratio", "share", ratio(float64(p.sums.scan.Hits), float64(p.sums.scan.Hits+p.sums.scan.Misses)))
	m.set("colscan.misses", "count", float64(p.sums.scan.Misses))

	var loads []float64
	var readCalls int
	var readMs float64
	var readBytes int64
	for _, s := range p.t.spans {
		switch s.Name {
		case "colseg.LoadColumns":
			loads = append(loads, s.Busy)
		case "dfs.ReadAt", "dfs.ReadFile", "dfs.ReadLineAt", "dfs.ReadSidecarAt":
			readCalls += s.Calls
			readMs += s.Busy
			readBytes += s.Bytes
		}
	}
	m.set("colseg.load_p50_ms", "ms", pct(loads, 50))
	m.set("colseg.sidecar_reads", "count", float64(p.sums.scan.SidecarReads))
	m.set("colseg.sidecar_errors", "count", float64(p.sums.scan.SidecarErrors))
	m.set("dfs.read_calls_per_query", "count", ratio(float64(readCalls), nq))
	m.set("dfs.read_ms_per_query", "ms", ratio(readMs, nq))
	m.set("dfs.bytes_read_per_query", "bytes", ratio(float64(readBytes), nq))
	m.set("dfs.append_p50_ms", "ms", pct(p.appendMs, 50))
	m.set("dfs.append_p90_ms", "ms", pct(p.appendMs, 90))
	m.set("dfs.journal_bytes_per_append", "bytes", ratio(float64(p.journal), float64(p.appends)))

	m.set("bench.gen_lag_p90_ms", "ms", pct(lt.lagMs, 90))
	return m
}

// tracedCycles adapts the traced pass to ingest-watch's cycles.
type tracedCycles struct {
	d       *deployment
	p       *tracedPass
	scratch *dfs.FileSystem
}

// scratchFS builds a bare filesystem holding td's files, on which each
// traced append is replayed to time the dfs layer alone.
func scratchFS(td *deployment) (*dfs.FileSystem, error) {
	fs := dfs.New(dfs.Config{BlockSize: blockSize, Seed: 1})
	for _, f := range td.w.files {
		b, err := td.env.FS.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		if err := fs.WriteFile(f.path, b); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// writeTrace saves the spans and each span name's self time under
// .bench_build in the working directory.
func writeTrace(workload string, seed uint64, t *tracer) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := t.selfMs()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	type selfTime struct {
		Name string  `json:"name"`
		Ms   float64 `json:"selfMs"`
	}
	out := struct {
		Self  []selfTime `json:"self"`
		Spans []span     `json:"spans"`
	}{Spans: t.spans}
	for _, n := range names {
		out.Self = append(out.Self, selfTime{n, self[n]})
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed)), b, 0o644)
}

// appended replays a traced append on the scratch filesystem and
// charges the journal growth the real one recorded.
func (tc *tracedCycles) appended(path string, data []byte, before counters) {
	after := readCounters(tc.d.env)
	tc.p.journal += after.journal.Bytes - before.journal.Bytes
	tc.p.appends++
	start := time.Now()
	if err := tc.scratch.Append(path, data); err != nil {
		tc.p.unfaith = append(tc.p.unfaith, fmt.Sprintf("scratch append: %v", err))
		return
	}
	tc.p.appendMs = append(tc.p.appendMs, ms(time.Since(start)))
}

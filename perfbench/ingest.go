package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/serve"
)

// cycle is one append of ingest-watch and everything the reader did
// after it: poll every subscriber, then issue the cycle's one-shots.
type cycle struct {
	upto      map[string]int // record counts the cycle's answers must cover
	watch     []answer       // each maintained query's report after the append
	refreshes []int          // each maintained query's refresh count after the append
	oneshots  []op

	appended time.Time // the append returned
	polled   time.Time // every subscriber holds a report covering the append
}

// call runs one serve call of a cycle. Under the traced pass (tc not
// nil) the call becomes a root span and the program's counters are read
// around it.
func (tc *tracedCycles) call(name string, fn func()) (root int, before counters) {
	if tc == nil {
		fn()
		return -1, counters{}
	}
	before = readCounters(tc.d.env)
	return tc.p.t.call(name, fn), before
}

// runCycle appends a batch to path and performs cycle k's reads.
func (d *deployment) runCycle(seed uint64, k int, path string, data []byte, vals []float64, keys []uint8,
	lastRefreshes []int, tc *tracedCycles, lt *loadResult) (cycle, error) {
	ctx := context.Background()
	var err error
	_, before := tc.call("serve.Append", func() { _, _, err = d.srv.Append(path, data) })
	appended := time.Now()
	lt.attempted++
	if err != nil {
		lt.failed++
		return cycle{}, err
	}
	if tc != nil {
		tc.appended(path, data, before)
	}
	cy := cycle{watch: make([]answer, len(d.w.watches)), refreshes: make([]int, len(d.w.watches)), appended: appended}
	polled := make([]bool, len(d.w.watches))
	for _, sub := range d.subs {
		var info serve.WatchInfo
		var perr error
		t0 := time.Now()
		_, before := tc.call("serve.WatchReport", func() { info, perr = d.srv.WatchReport(ctx, sub.id) })
		lat := time.Since(t0)
		lt.attempted++
		if perr != nil {
			lt.failed++
			lt.grades.notes = append(lt.grades.notes, fmt.Sprintf("poll %s: %v", sub.id, perr))
			continue
		}
		cy.refreshes[sub.watch] = info.Refreshes
		if info.Refreshes > lastRefreshes[sub.watch] {
			lastRefreshes[sub.watch] = info.Refreshes
			lt.refreshMs = append(lt.refreshMs, ms(lat))
			if tc != nil {
				tc.p.refreshes++
				tc.p.refreshRecords += readCounters(d.env).sub(before).cost.RecordsRead
			}
		}
		a := watchAnswer(info)
		if !polled[sub.watch] {
			polled[sub.watch] = true
			cy.watch[sub.watch] = a
		} else if fingerprint(a) != fingerprint(cy.watch[sub.watch]) {
			lt.grades.malformed++
			lt.grades.notes = append(lt.grades.notes, fmt.Sprintf("subscribers of %s hold different reports", d.w.watches[sub.watch].label))
		}
	}
	cy.polled = time.Now()
	// The oracle catches up only now, so that append and freshness
	// latency hold none of its work.
	d.grow(path, vals, keys)
	cy.upto = d.fullCounts()
	var s *shape
	var specs []serve.QuerySpec
	if n := len(d.w.stream.oneshots); n > 0 {
		s = &d.w.stream.oneshots[k%n]
		specs = append(specs, s.spec(querySeed(seed, 99, k), 0))
		if k%d.w.stream.repeatEach == 1 {
			specs = append(specs, specs[0])
		}
	}
	for _, spec := range specs {
		var res serve.QueryResult
		var qerr error
		t0 := time.Now()
		root, before := tc.call("serve.Query", func() { res, qerr = d.srv.Query(ctx, spec) })
		o := op{idx: k, q: query{shape: s, spec: spec}, lat: time.Since(t0), res: res, err: qerr}
		if tc != nil && qerr == nil {
			tc.p.afterQuery(d, root, o.q, res, before)
		}
		cy.oneshots = append(cy.oneshots, o)
		lt.attempted++
		if qerr != nil {
			lt.failed++
			lt.grades.notes = append(lt.grades.notes, fmt.Sprintf("one-shot %d: %v", k, qerr))
			continue
		}
		lt.queryMs = append(lt.queryMs, ms(o.lat))
		lt.waitMs = append(lt.waitMs, ms(o.lat-res.Elapsed))
	}
	return cy, nil
}

// nextBatch draws cycle k's append: the files take turns.
func (d *deployment) nextBatch(k int) (string, []byte, []float64, []uint8) {
	path := d.w.stream.paths[k%len(d.w.stream.paths)]
	data, vals, keys := d.gens[path].next(d.w.stream.batch)
	return path, data, vals, keys
}

// ingestLoop is the stream's open loop: append k is due k/rate seconds
// after the start. After each append one reader polls every subscriber
// and issues the one-shots, so each refresh covers exactly one append.
// When a cycle takes longer than the period, later appends go out late,
// and their latencies, timed from the due time, include the wait. The
// loop lasts dur and at least minAppends appends.
func (d *deployment) ingestLoop(seed uint64, dur time.Duration) loadResult {
	period := time.Duration(float64(time.Second) / d.w.stream.ratePerSec)
	lastRefreshes := make([]int, len(d.w.watches))
	var lt loadResult
	start := time.Now()
	for k := 0; time.Duration(k)*period < dur || k < d.w.stream.minAppends; k++ {
		path, data, vals, keys := d.nextBatch(k)
		due := start.Add(time.Duration(k) * period)
		time.Sleep(time.Until(due))
		lt.lagMs = append(lt.lagMs, ms(time.Since(due)))
		cy, err := d.runCycle(seed, k, path, data, vals, keys, lastRefreshes, nil, &lt)
		if err != nil {
			lt.grades.notes = append(lt.grades.notes, fmt.Sprintf("append %d: %v", k, err))
			continue
		}
		lt.appendMs = append(lt.appendMs, ms(cy.appended.Sub(due)))
		lt.freshMs = append(lt.freshMs, ms(cy.polled.Sub(due)))
		lt.cycles = append(lt.cycles, cy)
	}
	lt.elapsed = time.Since(start)
	lt.stats = d.srv.Stats()
	return lt
}

// gradeCycle checks a cycle's one-shot answers, and its watch reports
// when watches is set, against the oracle at the state the cycle covers.
// The quality set grades the watches at its last cycle only: successive
// reports of a maintained query share nearly all of their sample, so
// grading every refresh would count one sample's coverage many times.
func (d *deployment) gradeCycle(cy cycle, watches bool) tally {
	var t tally
	for wi := range d.w.watches {
		if watches && (cy.watch[wi].reports != nil || cy.watch[wi].groups != nil) {
			t.add(d.check(&d.w.watches[wi].shape, cy.watch[wi], cy.upto))
		}
	}
	for _, o := range cy.oneshots {
		if o.err == nil {
			t.add(d.check(o.q.shape, answerOf(o.res), cy.upto).unlessCached(o.res.Cached))
		}
	}
	return t
}

// replayCycles runs the first w.quality cycles back to back on a second
// deployment built from the same seed. The seed-determined metrics come
// from it, and every answer must equal the timed phase's answer for the
// same cycle.
func (d *deployment) replayCycles(seed uint64, tc *tracedCycles) ([]cycle, loadResult) {
	lastRefreshes := make([]int, len(d.w.watches))
	var lt loadResult
	var cycles []cycle
	for k := 0; k < d.w.quality; k++ {
		path, data, vals, keys := d.nextBatch(k)
		cy, err := d.runCycle(seed, k, path, data, vals, keys, lastRefreshes, tc, &lt)
		if err != nil {
			lt.grades.notes = append(lt.grades.notes, fmt.Sprintf("replayed append %d: %v", k, err))
			return cycles, lt
		}
		cycles = append(cycles, cy)
	}
	lt.stats = d.srv.Stats()
	return cycles, lt
}

// sameCycles compares replayed cycles with the timed phase's: the
// seed-determined metrics over the cycles both ran, the records the
// one-shots read, every maintained query's refresh count and every
// report's plan and growth generations must agree. Answers that differ
// in any bit are counted, of compared answers in all, and noted.
func (d *deployment) sameCycles(timed, replayed []cycle, t *tally) (same bool, compared, differing int) {
	n := min(len(timed), len(replayed))
	same = true
	var a, b tally
	var readA, readB int64
	compare := func(what string, x, y answer) {
		compared++
		ok, bits := sameAnswer(what, x, y, t)
		same = same && ok
		if !bits {
			differing++
		}
	}
	for k := 0; k < n; k++ {
		a.add(d.gradeCycle(timed[k], k == n-1))
		b.add(d.gradeCycle(replayed[k], k == n-1))
		for wi, ws := range d.w.watches {
			what := fmt.Sprintf("%s after append %d", ws.label, k)
			if x, y := timed[k].refreshes[wi], replayed[k].refreshes[wi]; x != y {
				same = false
				t.notes = append(t.notes, fmt.Sprintf("determinism: %s had refreshed %d times, %d on replay", what, x, y))
			}
			compare(what, timed[k].watch[wi], replayed[k].watch[wi])
		}
		if len(timed[k].oneshots) != len(replayed[k].oneshots) {
			same = false
			t.notes = append(t.notes, fmt.Sprintf("determinism: cycle %d issued %d one-shots, %d on replay", k, len(timed[k].oneshots), len(replayed[k].oneshots)))
			continue
		}
		for i, x := range timed[k].oneshots {
			y := replayed[k].oneshots[i]
			what := fmt.Sprintf("one-shot %d of cycle %d", i, k)
			if (x.err == nil) != (y.err == nil) {
				same = false
				compared++
				differing++
				t.notes = append(t.notes, fmt.Sprintf("determinism: %s failed in one run only: %v / %v", what, x.err, y.err))
				continue
			}
			if x.err != nil {
				continue
			}
			readA += x.res.Cost.RecordsRead
			readB += y.res.Cost.RecordsRead
			compare(what, answerOf(x.res), answerOf(y.res))
		}
	}
	same = sameMetrics(a, b, t) && same && readA == readB
	if readA != readB {
		t.notes = append(t.notes, fmt.Sprintf("determinism: one-shots read %d records, %d on replay", readA, readB))
	}
	return same, compared, differing
}

// ingestQuality replays the quality cycles on the spare deployment and
// grades them.
func (d *deployment) ingestQuality(seed uint64, lt loadResult) qualityResult {
	cycles, rl := d.replayCycles(seed, nil)
	q := qualityResult{cycles: cycles}
	q.grades.notes = rl.grades.notes
	q.grades.malformed = rl.grades.malformed
	for k, cy := range cycles {
		q.grades.add(d.gradeCycle(cy, k == len(cycles)-1))
		for _, o := range cy.oneshots {
			if o.err == nil {
				q.recordsRead += float64(o.res.Cost.RecordsRead)
				q.recordsQueried += float64(cy.upto[o.q.shape.path])
			}
		}
	}
	same, compared, differing := d.sameCycles(lt.cycles, cycles, &q.grades)
	q.deterministic = same && rl.failed == 0 && len(cycles) == d.w.quality
	q.compared, q.differing = compared, differing
	return q
}

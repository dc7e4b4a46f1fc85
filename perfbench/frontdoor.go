package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/frontdoor"
	"github.com/elasticflow/elasticflow/internal/topology"
)

const (
	// fdTraceSeed fixes the trace the arrivals come from; --seed moves
	// only their instants (see schedule).
	fdTraceSeed = 977
	fdShards    = 4
	fdServers   = 16 // per shard, 8 GPUs each: 512 GPUs in all
	// fdSnapEvery is efserver's default -snapshot-every.
	fdSnapEvery   = 256
	fdQuotaTenant = "t1"
	fdQuotaGPUs   = 32
	// fdNominalRate is well under the rate the ramp finds (about 600/s on a
	// 2-CPU host), so the open loop measures the submit path rather than a
	// queue in front of it; it keeps the process at about a quarter of one
	// core, which leaves room for the host's own noise.
	fdNominalRate = 100.0
	// fdTickTraceSec is the front door's scheduling epoch in trace time.
	// Platform time runs about 5000 times faster than wall time here, so a
	// 600 s epoch still ticks several times per wall second; a 60 s epoch
	// ticked 40 times a second, and which arrivals met a fresh quota and
	// capacity cache then depended on the host's timing, so the same seed
	// gave admit ratios and CPU per arrival 5-10% apart from run to run.
	fdTickTraceSec = 600.0
	// fdLimit is the latency limit of the ramp: the front door's existing
	// p99 floor.
	fdLimit = 250 * time.Millisecond
	// The ramp offers fdRampStart arrivals per second and then fdRampGrowth
	// times more each fdRampStep, up to fdRampSteps steps.
	fdRampStart  = 150.0
	fdRampGrowth = 1.2
	fdRampStep   = 750 * time.Millisecond
	fdRampSteps  = 12
	// fdMinOffered is the share of the nominal rate the generator must
	// achieve over the run for it to be valid. A late arrival alone does not
	// invalidate it: latency is timed from the due time, so the lag counts
	// against the program; bench.gen_lag_p99_ms reports it.
	fdMinOffered = 0.95
)

// Verdict classes of one arrival.
const (
	classAdmitted = iota
	classDropped  // deadline-dropped by admission control (409 over HTTP)
	classRejected // turned away at the door by the tenant's GPU quota
	classErrored  // any other error: counts as missing every latency limit
	numClasses
)

// result is what the generator and the collector record for one arrival.
// The generator writes the first block, the collector the second; drive
// returns only after both have finished.
type result struct {
	due, sent, enqueued time.Time
	ticket              *frontdoor.Ticket

	decided  time.Time
	class    int
	verdicts int
}

// latency is the arrival's time from due to verdict; an error counts as
// missing every limit.
func (r *result) latency() float64 {
	if r.class == classErrored {
		return math.Inf(1)
	}
	return ms(r.decided.Sub(r.due))
}

// openLoop is one durable front door driven by a single generator
// goroutine. Platform time follows trace time: the clock the front door
// sees is the trace time of the latest arrival sent, so deadlines and
// completions follow the trace, not the speed of the host (which arrivals
// share a batch or meet a fresh Tick still depends on timing).
type openLoop struct {
	fd       *frontdoor.FrontDoor
	dir      string
	rec      *recorder
	traceNow atomic.Int64 // ns of trace time
	nextTick float64      // generator only
	ticks    []time.Duration
}

var clockBase = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

func (l *openLoop) clock() time.Time { return clockBase.Add(time.Duration(l.traceNow.Load())) }

func newOpenLoop(dir string, rec *recorder) (*openLoop, error) {
	l := &openLoop{dir: dir, rec: rec}
	fd, err := frontdoor.New(frontdoor.Options{
		Shards:        fdShards,
		ShardTopology: topology.Config{Servers: fdServers, GPUsPerServer: 8},
		Tenants:       map[string]frontdoor.TenantConfig{fdQuotaTenant: {MaxGPUs: fdQuotaGPUs}},
		Clock:         l.clock,
		StateDir:      dir,
		SnapshotEvery: fdSnapEvery,
	})
	if err != nil {
		return nil, err
	}
	l.fd = fd
	return l, nil
}

// drive offers arr at the due offsets from now, one generator goroutine
// (the caller) calling Enqueue, a collector goroutine stamping verdicts as
// they arrive, and a tick goroutine running the front door's epoch every
// fdTickTraceSec of trace time. It returns when every arrival has its
// verdict.
func (l *openLoop) drive(arr []arrival, due []time.Duration, res []result) {
	type sent struct{ i, root int }
	// Sized to the number of sends, so the generator never waits for the
	// collector.
	tickets := make(chan sent, len(arr))
	tickReq := make(chan struct{}, 1)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for range tickReq {
			id := l.rec.begin("frontdoor", "frontdoor.Tick", 0)
			start := time.Now()
			l.fd.Tick()
			l.ticks = append(l.ticks, time.Since(start))
			l.rec.end(id)
		}
	}()
	go func() {
		defer wg.Done()
		// One select over every outstanding ticket stamps each verdict when
		// it is delivered, whichever shard delivers first.
		cases := []reflect.SelectCase{{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(tickets)}}
		var meta []sent
		open := true
		for open || len(meta) > 0 {
			chosen, v, ok := reflect.Select(cases)
			now := time.Now()
			if chosen == 0 {
				if !ok {
					cases[0].Chan, open = reflect.Value{}, false
					continue
				}
				s := v.Interface().(sent)
				cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(res[s.i].ticket.C)})
				meta = append(meta, s)
				continue
			}
			s := meta[chosen-1]
			r := &res[s.i]
			r.decided = now
			r.class = classErrored
			if ok {
				r.verdicts++
				if vd := v.Interface().(frontdoor.Verdict); vd.Err == nil {
					switch vd.Status.State {
					case "admitted", "running", "completed":
						r.class = classAdmitted
					case "dropped":
						r.class = classDropped
					}
				}
			}
			l.rec.endAt(l.rec.beginAt("frontdoor", "frontdoor.wait", s.root, r.enqueued), now)
			l.rec.endAt(s.root, now)
			last := len(cases) - 1
			cases[chosen], meta[chosen-1] = cases[last], meta[last-1]
			cases, meta = cases[:last], meta[:last-1]
		}
	}()

	start := time.Now()
	for i, a := range arr {
		r := &res[i]
		r.due = start.Add(due[i])
		if d := time.Until(r.due); d > 0 {
			time.Sleep(d)
		}
		if ns := int64(a.traceSec * float64(time.Second)); ns > l.traceNow.Load() {
			l.traceNow.Store(ns)
		}
		if a.traceSec >= l.nextTick {
			l.nextTick = (math.Floor(a.traceSec/fdTickTraceSec) + 1) * fdTickTraceSec
			select {
			case tickReq <- struct{}{}:
			default: // a tick is already pending; it will see the new time
			}
		}
		root := l.rec.beginAt("bench", "bench.request", 0, r.due)
		r.sent = time.Now()
		id := l.rec.begin("frontdoor", "frontdoor.Enqueue", root)
		t, err := l.fd.Enqueue(a.req)
		r.enqueued = time.Now()
		l.rec.end(id)
		if err != nil {
			r.decided, r.verdicts, r.class = r.enqueued, 1, classErrored
			if errors.Is(err, frontdoor.ErrQuotaExceeded) {
				r.class = classRejected
			}
			l.rec.end(root)
			continue
		}
		r.ticket = t
		tickets <- sent{i, root}
	}
	close(tickReq)
	close(tickets)
	wg.Wait()
}

// checkVerdicts fails the run unless each arrival got exactly one verdict
// and the classes add up to the arrivals.
func checkVerdicts(rep *report, phase string, res []result) [numClasses]int {
	var n [numClasses]int
	extra := 0
	for i := range res {
		r := &res[i]
		if r.verdicts != 1 {
			rep.check(false, "%s: arrival %d got %d verdicts", phase, i, r.verdicts)
		}
		if r.ticket != nil {
			select {
			case _, ok := <-r.ticket.C:
				if ok {
					extra++
				}
			case <-time.After(time.Second):
				rep.check(false, "%s: arrival %d: ticket never closed after its verdict", phase, i)
			}
		}
		n[r.class]++
	}
	rep.check(extra == 0, "%s: %d arrivals got a second verdict", phase, extra)
	sum := 0
	for _, c := range n {
		sum += c
	}
	rep.check(sum == len(res), "%s: admitted+dropped+rejected+errors = %d, attempted %d", phase, sum, len(res))
	return n
}

func (l *openLoop) shutdown() error {
	err := l.fd.Shutdown()
	if rerr := os.RemoveAll(l.dir); err == nil {
		err = rerr
	}
	return err
}

func runFrontDoor(e *env) (*report, error) {
	rep := newReport()
	nNominal := int(fdNominalRate * e.seconds)
	n := nNominal
	if e.trace {
		n = max(n, rampArrivals())
	}

	// Set-up: generate and materialize the arrivals, then build a durable
	// front door on an empty state directory; the last one built is used.
	var (
		setups, mats []float64
		arr          []arrival
		loop         *openLoop
	)
	for i := 0; i < setupRepeats; i++ {
		if loop != nil {
			if err := loop.shutdown(); err != nil {
				return nil, err
			}
		}
		settle()
		start, cpu := time.Now(), selfCPU()
		var err error
		if arr, err = arrivals(fdTraceSeed, n, true); err != nil {
			return nil, err
		}
		mats = append(mats, ms(time.Since(start)))
		if loop, err = newOpenLoop(filepath.Join(e.dir, fmt.Sprintf("fd-%d", i)), e.rec); err != nil {
			return nil, err
		}
		setups = append(setups, (selfCPU() - cpu).Seconds())
	}
	rep.set("setup_s", median(setups))
	rep.set("trace.materialize_ms", median(mats))

	// The measured phase: the whole run at the nominal rate.
	nom := arr[:nNominal]
	res := make([]result, len(nom))
	h0, m0 := core.PlanCacheStats()
	a0, s0 := core.DecisionStats()
	gBefore := readGoStats()
	stopRSS := rssSampler("self", nil)
	stopWAL := walSampler(loop.dir, e.trace)
	cpu0 := selfCPU()
	start := time.Now()
	loop.drive(nom, schedule(nom, fdNominalRate, e.seed), res)
	wall := time.Since(start)
	cpu1 := selfCPU()
	rss, peak, err := stopRSS()
	if err != nil {
		return nil, err
	}
	setGoMetrics(rep, gBefore, readGoStats(), len(nom))
	h1, m1 := core.PlanCacheStats()
	a1, s1 := core.DecisionStats()
	stats := loop.fd.Stats()
	recBytes, err := stopWAL()
	if err != nil {
		return nil, err
	}
	ticks := loop.ticks
	if err := loop.shutdown(); err != nil {
		return nil, err
	}

	counts := checkVerdicts(rep, "nominal", res)
	rep.attempted += len(res)
	rep.failed += counts[classErrored]
	var lat, lag, enq, wait []float64
	var byClass [numClasses][]float64
	for i := range res {
		r := &res[i]
		lat = append(lat, r.latency())
		lag = append(lag, ms(r.sent.Sub(r.due)))
		enq = append(enq, ms(r.enqueued.Sub(r.sent)))
		byClass[r.class] = append(byClass[r.class], r.latency())
		if r.ticket != nil {
			wait = append(wait, ms(r.decided.Sub(r.enqueued)))
		}
	}
	p50, p99 := percentile(lat, 0.50), percentile(lat, 0.99)
	rep.check(!math.IsInf(p99, 1), "more than 1%% of arrivals failed (%d errors)", counts[classErrored])
	lagP99 := percentile(lag, 0.99)
	// The generator's own pace: when it sent the last arrival, one slot in.
	achieved := float64(len(nom)) / (res[len(res)-1].sent.Sub(start).Seconds() + 1/fdNominalRate)
	rep.check(achieved >= fdMinOffered*fdNominalRate, "the generator fell behind: it offered %.1f arrivals/s of the nominal %.0f", achieved, fdNominalRate)
	rep.set("rss_mb", rss)
	rep.set("go.peak_rss_mb", peak)
	rep.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(len(nom)))
	rep.set("frontdoor.latency_p50_ms", p50)
	rep.set("frontdoor.latency_p99_ms", p99)
	rep.set("admit_ratio", float64(counts[classAdmitted])/float64(len(res)))

	rep.set("frontdoor.enqueue_p99_us", 1000*percentile(enq, 0.99))
	rep.set("frontdoor.wait_p50_ms", percentile(wait, 0.50))
	rep.set("frontdoor.wait_p99_ms", percentile(wait, 0.99))
	rep.set("frontdoor.batches", float64(stats.Batches))
	if stats.Batches > 0 {
		rep.set("frontdoor.mean_batch", float64(len(wait))/float64(stats.Batches))
	}
	rep.set("frontdoor.max_batch", float64(stats.MaxBatch))
	rep.set("frontdoor.rebalanced_ratio", float64(stats.Rebalanced)/float64(len(res)))
	rep.set("frontdoor.door_rejected_ratio", float64(counts[classRejected])/float64(len(res)))
	tickMS := make([]float64, len(ticks))
	for i, d := range ticks {
		tickMS[i] = ms(d)
	}
	rep.set("frontdoor.tick_ms", sumMS(ticks))
	rep.set("frontdoor.tick_p99_ms", percentile(tickMS, 0.99))
	rep.set("frontdoor.sweep_share", sweepShare(nom))
	rep.set("verdict.admitted_p99_ms", percentile(byClass[classAdmitted], 0.99))
	rep.set("verdict.dropped_p99_ms", percentile(byClass[classDropped], 0.99))
	rep.set("verdict.rejected_p99_ms", percentile(byClass[classRejected], 0.99))
	rep.set("core.admit_calls", float64(a1-a0))
	rep.set("core.schedule_calls", float64(s1-s0))
	if h1+m1 > h0+m0 {
		rep.set("core.plan_cache_hit_ratio", float64(h1-h0)/float64(h1+m1-h0-m0))
	}
	rep.set("store.record_bytes", recBytes)
	rep.set("bench.gen_lag_p99_ms", lagP99)
	rep.set("bench.offered_per_s", fdNominalRate)
	rep.set("bench.achieved_per_s", achieved)
	rep.set("bench.measured_s", wall.Seconds())
	rep.note("%d arrivals at %.0f/s over %.2f s: admitted %d, dropped %d, door-rejected %d, errors %d; sweep share %.3f; %d ticks; CPU %.0f%% of one core",
		len(nom), fdNominalRate, wall.Seconds(), counts[classAdmitted], counts[classDropped], counts[classRejected], counts[classErrored],
		sweepShare(nom), len(ticks), 100*(cpu1-cpu0).Seconds()/wall.Seconds())

	if e.trace {
		// The latency-limited rate, from a ramp on a fresh front door, and
		// the journal's append cost alone.
		maxRate, err := ramp(e, rep, arr, fdNominalRate, max(p99, percentile(lat[len(lat)-len(lat)/10:], 1)))
		if err != nil {
			return nil, err
		}
		rep.set("frontdoor.max_rate_per_s", maxRate)
		if err := probeAppend(e, rep, recBytes); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// rampArrivals is how many arrivals the ramp can use: every step offered
// twice.
func rampArrivals() int {
	n := 0
	for k, r := 0, fdRampStart; k < fdRampSteps; k, r = k+1, r*fdRampGrowth {
		n += 2 * int(r*fdRampStep.Seconds())
	}
	return n
}

// ramp offers stepped rates to a fresh front door, replaying the trace from
// its start, and returns the highest rate that holds the limit. A step
// holds when the p99 of its arrivals, timed from due, is within fdLimit and
// so is the slowest of its last tenth (no growing backlog). A step that
// misses is offered once more, so one stall of the host does not end the
// ramp; the ramp stops at the first step that misses twice. The result
// interpolates, on a log scale, where the step latency crosses the limit
// between the last rate that held (the nominal phase if none did) and the
// one that failed, so it moves smoothly with the program's speed instead of
// by whole steps.
func ramp(e *env, rep *report, arr []arrival, nominalRate, nominalScore float64) (float64, error) {
	loop, err := newOpenLoop(filepath.Join(e.dir, "ramp"), nil)
	if err != nil {
		return 0, err
	}
	okRate, okScore := nominalRate, nominalScore
	failRate, failScore := 0.0, 0.0
	var steps []string
	pos := 0
	offer := func(rate float64) float64 {
		n := int(rate * fdRampStep.Seconds())
		step := arr[pos : pos+n]
		pos += n
		res := make([]result, n)
		loop.drive(step, schedule(step, rate, e.seed+int64(pos)), res)
		counts := checkVerdicts(rep, fmt.Sprintf("ramp %.0f/s", rate), res)
		rep.attempted += n
		rep.failed += counts[classErrored]
		lat := make([]float64, n)
		for i := range res {
			lat[i] = res[i].latency()
		}
		score := max(percentile(lat, 0.99), percentile(lat[n-n/10:], 1))
		steps = append(steps, fmt.Sprintf("%.0f/s %.1f ms", rate, score))
		return score
	}
	for k, rate := 0, fdRampStart; k < fdRampSteps; k, rate = k+1, rate*fdRampGrowth {
		score := offer(rate)
		if score > ms(fdLimit) {
			score = offer(rate)
		}
		if score > ms(fdLimit) {
			failRate, failScore = rate, score
			break
		}
		okRate, okScore = rate, score
	}
	if err := loop.shutdown(); err != nil {
		return 0, err
	}
	rep.note("ramp (rate, max of p99 and last-tenth latency): %s", strings.Join(steps, "; "))
	switch {
	case okScore > ms(fdLimit):
		rep.note("ramp: the nominal rate already missed the %v limit on this run", fdLimit)
		return 0, nil
	case failRate == 0:
		rep.note("ramp: no step up to %.0f/s missed the %v limit; the rate is a lower bound", okRate, fdLimit)
		return okRate, nil
	}
	frac := (math.Log(ms(fdLimit)) - math.Log(max(okScore, 1e-3))) / (math.Log(failScore) - math.Log(max(okScore, 1e-3)))
	return okRate * math.Pow(failRate/okRate, min(max(frac, 0), 1)), nil
}

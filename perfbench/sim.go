package main

import (
	"fmt"
	"time"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/model"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/trace"
	"github.com/elasticflow/elasticflow/internal/validate"
)

// The sim-philly replay: a fixed prefix of the Philly-scale trace on its
// 2,048-GPU topology. The seed and length are fixed, not taken from --seed,
// so every run replays the same decisions and the exact outcomes (DSR,
// admitted jobs that missed) stay comparable across commits; 600 jobs keep
// one replay near 4 s on a 2-CPU host.
const (
	simJobs      = 600
	simTraceSeed = 977
	// simMinReplays makes every run compare at least two replays.
	simMinReplays = 2
	// setupRepeats is how many times a run sets up before taking the
	// median, for every workload.
	setupRepeats = 9
)

// timedScheduler times each Admit and Schedule call of the scheduler it
// wraps, and records them as core spans under parent when tracing.
type timedScheduler struct {
	inner    sched.Scheduler
	rec      *recorder
	parent   int
	admit    []time.Duration
	schedule []time.Duration
	accepted int
}

func (t *timedScheduler) Name() string { return t.inner.Name() }

func (t *timedScheduler) Admit(now float64, cand *job.Job, active []*job.Job, g int) bool {
	id := t.rec.begin("core", "core.Admit", t.parent)
	start := time.Now()
	ok := t.inner.Admit(now, cand, active, g)
	t.admit = append(t.admit, time.Since(start))
	t.rec.end(id)
	if ok {
		t.accepted++
	}
	return ok
}

func (t *timedScheduler) Schedule(now float64, active []*job.Job, g int) sched.Decision {
	id := t.rec.begin("core", "core.Schedule", t.parent)
	start := time.Now()
	d := t.inner.Schedule(now, active, g)
	t.schedule = append(t.schedule, time.Since(start))
	t.rec.end(id)
	return d
}

// InvalidatePlanCache forwards to the wrapped scheduler: without it the
// engine could not reach core's plan cache and decisions would change.
func (t *timedScheduler) InvalidatePlanCache() { sched.Invalidate(t.inner) }

// simOutcome is what must repeat exactly between replays.
type simOutcome struct {
	dsr                                          float64
	jobs, admitted, rescales, migrations, missed int
}

func materializeSim() (trace.Trace, []*job.Job, error) {
	tr := trace.PhillyScale(simJobs, simTraceSeed)
	est := throughput.NewEstimator(model.DefaultA100())
	jobs, err := tr.Jobs(throughput.NewProfiler(est, 8, 128), est)
	return tr, jobs, err
}

func runSim(e *env) (*report, error) {
	rep := newReport()
	var setups, mats []float64
	// Set up once outside the measured loop for the remaining repeats, so
	// short runs still take the median of setupRepeats.
	setup := func() (trace.Trace, []*job.Job, *core.ElasticFlow, error) {
		settle()
		start, cpu := time.Now(), selfCPU()
		tr, jobs, err := materializeSim()
		mat := time.Since(start)
		s := core.NewDefault()
		setups = append(setups, (selfCPU() - cpu).Seconds())
		mats = append(mats, ms(mat))
		return tr, jobs, s, err
	}

	var (
		first                  *simOutcome
		walls, rates, admitLat []float64
		schedLat               []float64
		cpu                    time.Duration
		admitMS, schedMS       []float64
		admitCalls, schedCalls []float64
		accepted               int
		replays, traced        int
		tracedWall             time.Duration
		hits, misses           uint64
	)
	before := readGoStats()
	stopRSS := rssSampler("self", nil)
	start := time.Now()
	end := e.deadline(start)
	for replays < simMinReplays || time.Now().Before(end) {
		tr, jobs, s, err := setup()
		if err != nil {
			return nil, err
		}
		// A traced run alternates untraced and traced replays, so the
		// outcome check also compares the two.
		var rec *recorder
		if e.trace && replays%2 == 1 {
			rec = e.rec
		}
		ts := &timedScheduler{inner: s, rec: rec}
		h0, m0 := core.PlanCacheStats()
		c0 := selfCPU()
		t0 := time.Now()
		ts.parent = rec.begin("sim", "sim.Run", 0)
		res, err := sim.Run(sim.Config{
			Topology:  topology.Config{Servers: tr.GPUs / 8, GPUsPerServer: 8},
			Scheduler: ts,
		}, jobs, tr.Name)
		rec.end(ts.parent)
		wall := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("replay %d: %w", replays, err)
		}
		cpu += selfCPU() - c0
		h1, m1 := core.PlanCacheStats()
		hits, misses = hits+h1-h0, misses+m1-m0
		if rec != nil {
			traced++
			tracedWall += wall
		}
		replays++

		violations := validate.Audit(res, tr.GPUs)
		rep.check(len(violations) == 0, "replay %d: validate.Audit: %v", replays, violations)
		got := simOutcome{
			dsr:        res.DeadlineSatisfactoryRatio(),
			jobs:       len(res.Jobs),
			admitted:   res.AdmittedCount(),
			rescales:   res.Rescales,
			migrations: res.Migrations,
			missed:     len(validate.AuditGuarantee(res)),
		}
		if first == nil {
			first = &got
		}
		rep.check(got == *first, "replay %d outcome %+v differs from replay 1 %+v", replays, got, *first)
		rep.attempted += got.jobs

		walls = append(walls, wall.Seconds())
		rates = append(rates, float64(got.jobs)/wall.Seconds())
		for _, d := range ts.admit {
			admitLat = append(admitLat, ms(d))
		}
		for _, d := range ts.schedule {
			schedLat = append(schedLat, ms(d))
		}
		admitMS = append(admitMS, sumMS(ts.admit))
		schedMS = append(schedMS, sumMS(ts.schedule))
		admitCalls = append(admitCalls, float64(len(ts.admit)))
		schedCalls = append(schedCalls, float64(len(ts.schedule)))
		accepted += ts.accepted
	}
	setGoMetrics(rep, before, readGoStats(), rep.attempted)
	rss, peak, err := stopRSS()
	if err != nil {
		return nil, err
	}
	for len(setups) < setupRepeats {
		if _, _, _, err := setup(); err != nil {
			return nil, err
		}
	}
	rep.set("setup_s", median(setups))
	rep.set("rss_mb", rss)
	rep.set("go.peak_rss_mb", peak)
	rep.set("cpu_ms_per_op", ms(cpu)/float64(rep.attempted))
	rep.set("bench.throughput_per_s", median(rates))
	rep.set("admit_ratio", float64(first.admitted)/float64(first.jobs))

	rep.set("core.admit_calls", median(admitCalls))
	rep.set("core.admit_ms", median(admitMS))
	rep.set("core.admit_p99_us", 1000*percentile(admitLat, 0.99))
	rep.set("core.admit_accept_ratio", float64(accepted)/float64(len(admitLat)))
	rep.set("core.schedule_calls", median(schedCalls))
	rep.set("core.schedule_ms", median(schedMS))
	rep.set("core.schedule_p99_us", 1000*percentile(schedLat, 0.99))
	if hits+misses > 0 {
		rep.set("core.plan_cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	rep.set("sim.rescales", float64(first.rescales))
	rep.set("sim.migrations", float64(first.migrations))
	rep.set("sim.dsr", first.dsr)
	rep.set("sim.admitted_missed", float64(first.missed))
	rep.set("trace.materialize_ms", median(mats))
	if traced > 0 {
		rep.set("bench.measured_s", tracedWall.Seconds())
		rep.set("bench.trace_units", float64(traced))
	}

	rep.note("%d replays of %d jobs (trace seed %d): median wall %.3f s; dsr %.4f, admitted %d, admitted but missed %d",
		replays, first.jobs, simTraceSeed, median(walls), first.dsr, first.admitted, first.missed)
	rep.note("core Admit wall time p50 %.3f ms, p99 %.3f ms over %d calls; %.1f jobs replayed per wall second",
		percentile(admitLat, 0.5), percentile(admitLat, 0.99), len(admitLat), median(rates))
	return rep, nil
}

func sumMS(ds []time.Duration) float64 {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return ms(t)
}

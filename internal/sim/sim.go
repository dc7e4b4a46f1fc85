// Package sim is the discrete-event cluster simulator of §6.1: it replays a
// trace of training jobs against a scheduler, simulating job-level events
// (arrival, elastic scaling, migration, completion) with the profiled
// throughput model, charging scaling/migration overheads, and collecting the
// paper's metrics — deadline satisfactory ratio, cluster efficiency (Eq. 8),
// best-effort JCT, makespan and allocation timelines.
package sim

import (
	"fmt"
	"math"
	"sort"

	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sched"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/transfer"
)

// Config configures one simulation run.
type Config struct {
	// Topology describes the cluster; its capacity bounds scheduling.
	Topology topology.Config
	// Scheduler is the policy under test.
	Scheduler sched.Scheduler
	// PlacementFree skips buddy placement and only enforces the capacity
	// bound; used by the unit-increment ablation whose allocations are
	// not powers of two.
	PlacementFree bool
	// NoOverheads disables rescale overhead charging (ablation).
	NoOverheads bool
	// Costs prices checkpoint movement for freeze charges: a migration's
	// wire time is the job's CheckpointBytes over the bandwidth of the
	// link crossed. Nil uses transfer.DefaultCostModel(), which matches
	// model.DefaultA100 — the same table the live platform's estimator
	// prices with, so the same move costs the same seconds in both.
	Costs *transfer.CostModel
	// SampleSec adds periodic timeline samples between events (0 = only
	// at events).
	SampleSec float64
	// MaxSimSec aborts runaway simulations (default 120 days).
	MaxSimSec float64
	// Failures injects node failures (§4.4): while a server is down its
	// GPUs are unavailable, and the jobs placed on it checkpoint-restore
	// onto the remaining capacity.
	Failures []Failure
	// RecordEvents captures an event log in Result.Events (admissions,
	// drops, rescales, migrations, completions, failures).
	RecordEvents bool
	// Obs, when non-nil, receives the same events on its structured bus
	// (stamped with simulated time) plus metrics: admission/completion
	// counters, rescale/migration totals, utilization and efficiency
	// gauges, and scheduling-decision latency. Observability is purely
	// additive — the Result is byte-identical with Obs set or nil (see
	// TestObsDeterminism).
	Obs *obs.Obs
}

// Event is one entry of the optional simulation event log.
type Event struct {
	Time   float64
	Kind   string // arrival|admit|drop|complete|rescale|migrate|failure|recovery
	JobID  string
	Detail string
}

// Failure describes one injected node failure.
type Failure struct {
	// Server is the failing server's index.
	Server int
	// StartSec is when the server goes down.
	StartSec float64
	// DurationSec is how long it stays down.
	DurationSec float64
}

// Sample is one point of the simulation timeline.
type Sample struct {
	Time              float64
	UsedGPUs          int
	ClusterEfficiency float64
	Submitted         int
	Admitted          int
	Running           int
	Completed         int
	Dropped           int
}

// JobResult records one job's fate.
type JobResult struct {
	ID         string
	Class      job.Class
	Submit     float64
	Deadline   float64
	Completion float64
	Dropped    bool
	Finished   bool
	Met        bool
	GPUSeconds float64
	Rescales   int
}

// JCT returns the job completion time (completion − submission).
func (r JobResult) JCT() float64 { return r.Completion - r.Submit }

// Result aggregates a run.
type Result struct {
	Scheduler  string
	Trace      string
	Jobs       []JobResult
	Samples    []Sample
	Makespan   float64
	Rescales   int
	Migrations int
	// Starved counts jobs left unfinished because the scheduler stopped
	// giving them GPUs with no future events pending.
	Starved int
	// Events is the event log (only when Config.RecordEvents is set).
	Events []Event
}

// DeadlineSatisfactoryRatio returns met-deadline jobs over all submitted
// jobs with deadlines — the paper's headline metric. Dropped and unfinished
// jobs count against it.
func (r Result) DeadlineSatisfactoryRatio() float64 {
	total, met := 0, 0
	for _, j := range r.Jobs {
		if math.IsInf(j.Deadline, 1) {
			continue
		}
		total++
		if j.Met {
			met++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(met) / float64(total)
}

// AdmittedCount returns the number of jobs not dropped at admission.
func (r Result) AdmittedCount() int {
	n := 0
	for _, j := range r.Jobs {
		if !j.Dropped {
			n++
		}
	}
	return n
}

// AvgBestEffortJCT averages the completion time of finished best-effort
// jobs. Returns 0 when the trace has none.
func (r Result) AvgBestEffortJCT() float64 {
	sum, n := 0.0, 0
	for _, j := range r.Jobs {
		if j.Class == job.BestEffort && j.Finished {
			sum += j.JCT()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AvgClusterEfficiency averages Eq. 8 over the timeline, time-weighted.
func (r Result) AvgClusterEfficiency() float64 {
	if len(r.Samples) < 2 {
		return 0
	}
	area, span := 0.0, 0.0
	for i := 1; i < len(r.Samples); i++ {
		dt := r.Samples[i].Time - r.Samples[i-1].Time
		area += r.Samples[i-1].ClusterEfficiency * dt
		span += dt
	}
	if span == 0 {
		return r.Samples[0].ClusterEfficiency
	}
	return area / span
}

// engine carries the run state.
type engine struct {
	cfg     Config
	g       int
	cluster *topology.Cluster
	sched   sched.Scheduler
	costs   transfer.CostModel
	// tr is Config.Obs's tracer (nil when tracing is off). Spans carry
	// LSN 0 here: the simulator has no write-ahead journal to correlate
	// against.
	tr *tracing.Tracer

	now     float64
	wake    float64 // scheduler-requested wake-up; 0 = none
	pending []*job.Job
	next    int // index into pending
	active  []*job.Job

	stats     map[string]*JobResult
	res       *Result
	submitted int
	completed int
	dropped   int

	// failEvents are the expanded failure start/end events, time-sorted.
	failEvents []failEvent
	nextFail   int
	downGPUs   int
}

// failEvent is a failure transition.
type failEvent struct {
	at     float64
	server int
	down   bool
}

// avail returns the schedulable capacity: total GPUs minus failed servers.
func (e *engine) avail() int { return e.g - e.downGPUs }

// logEvent is a thin adapter onto the obs bus: the event goes to
// Config.Obs when wired, and its legacy rendering (Detail is the "k=v ..."
// form of the fields) to Result.Events when RecordEvents is set.
func (e *engine) logEvent(kind, jobID string, fields ...obs.Field) {
	if e.cfg.Obs == nil && !e.cfg.RecordEvents {
		return
	}
	ev := obs.Event{Time: e.now, Kind: kind, JobID: jobID, Fields: fields}
	e.cfg.Obs.Publish(ev)
	if e.cfg.RecordEvents {
		e.res.Events = append(e.res.Events, Event{Time: e.now, Kind: kind, JobID: jobID, Detail: ev.Detail()})
	}
}

// Run simulates jobs (sorted by submission time) under cfg and returns the
// collected result. The jobs' mutable state is modified in place.
func Run(cfg Config, jobs []*job.Job, traceName string) (Result, error) {
	if cfg.Scheduler == nil {
		return Result{}, fmt.Errorf("sim: no scheduler configured")
	}
	if cfg.MaxSimSec <= 0 {
		cfg.MaxSimSec = 120 * 24 * 3600
	}
	cluster, err := topology.New(cfg.Topology)
	if err != nil {
		return Result{}, err
	}
	pending := append([]*job.Job{}, jobs...)
	sort.Slice(pending, func(i, k int) bool { return pending[i].SubmitTime < pending[k].SubmitTime })

	costs := transfer.DefaultCostModel()
	if cfg.Costs != nil {
		costs = *cfg.Costs
	}
	e := &engine{
		cfg:     cfg,
		g:       cluster.TotalGPUs(),
		cluster: cluster,
		sched:   cfg.Scheduler,
		costs:   costs,
		tr:      cfg.Obs.Tracer(),
		pending: pending,
		stats:   make(map[string]*JobResult, len(pending)),
		res:     &Result{Scheduler: cfg.Scheduler.Name(), Trace: traceName},
	}
	for _, f := range cfg.Failures {
		if f.Server < 0 || f.Server >= cfg.Topology.Servers {
			return Result{}, fmt.Errorf("sim: failure server %d out of range", f.Server)
		}
		e.failEvents = append(e.failEvents,
			failEvent{at: f.StartSec, server: f.Server, down: true},
			failEvent{at: f.StartSec + f.DurationSec, server: f.Server, down: false},
		)
	}
	sort.Slice(e.failEvents, func(i, k int) bool { return e.failEvents[i].at < e.failEvents[k].at })
	if err := e.run(); err != nil {
		return Result{}, err
	}
	// Emit job results in submission order.
	for _, j := range pending {
		e.res.Jobs = append(e.res.Jobs, *e.stats[j.ID])
	}
	return *e.res, nil
}

func (e *engine) run() error {
	if len(e.pending) == 0 {
		return nil
	}
	e.now = e.pending[0].SubmitTime
	stuck := 0
	for {
		if e.now > e.cfg.MaxSimSec {
			return fmt.Errorf("sim: exceeded MaxSimSec=%g at %d active jobs (scheduler %s)", e.cfg.MaxSimSec, len(e.active), e.sched.Name())
		}
		tNext, kind := e.nextEvent()
		if math.IsInf(tNext, 1) {
			if len(e.active) == 0 {
				break
			}
			// No pending events but jobs remain: give the scheduler
			// one chance to restart them, then declare starvation.
			if stuck++; stuck > 1 {
				e.res.Starved = len(e.active)
				for _, j := range e.active {
					e.stats[j.ID].Finished = false
				}
				break
			}
			e.reschedule()
			continue
		}
		stuck = 0
		e.advanceAll(tNext - e.now)
		e.now = tNext

		changed := false
		switch kind {
		case evWake:
			e.wake = 0
			changed = true
		case evCompletion:
			changed = e.completeDone() || changed
		case evArrival:
			changed = e.completeDone() || changed // completions tie-break first
			changed = e.admitArrivals() || changed
		case evFailure:
			changed = e.applyFailures() || changed
		case evSample:
			// fallthrough to sampling below
		}
		// Completions can coincide with any event type.
		if kind != evCompletion && kind != evArrival {
			changed = e.completeDone() || changed
		}
		if changed {
			e.reschedule()
		}
		e.sample()
	}
	e.res.Makespan = e.now
	return nil
}

type evKind int

const (
	evArrival evKind = iota
	evCompletion
	evWake
	evSample
	evFailure
)

// nextEvent returns the earliest upcoming event time and kind.
func (e *engine) nextEvent() (float64, evKind) {
	t := math.Inf(1)
	kind := evSample
	if e.next < len(e.pending) {
		t, kind = e.pending[e.next].SubmitTime, evArrival
	}
	// Failure transitions matter only while work remains.
	if (e.next < len(e.pending) || len(e.active) > 0) &&
		e.nextFail < len(e.failEvents) && e.failEvents[e.nextFail].at < t {
		t, kind = e.failEvents[e.nextFail].at, evFailure
	}
	if f := e.minFinish(); f < t {
		t, kind = f, evCompletion
	}
	// Wake-ups only matter while jobs are active; otherwise a periodic
	// scheduler would keep the simulation alive forever.
	if e.wake > e.now && e.wake < t && len(e.active) > 0 {
		t, kind = e.wake, evWake
	}
	// Periodic samples only matter while something can still happen.
	if e.cfg.SampleSec > 0 && len(e.res.Samples) > 0 && !math.IsInf(t, 1) {
		s := e.res.Samples[len(e.res.Samples)-1].Time + e.cfg.SampleSec
		if s > e.now && s < t {
			t, kind = s, evSample
		}
	}
	return t, kind
}

// advanceAll accrues dt seconds of progress and GPU time on every active job.
func (e *engine) advanceAll(dt float64) {
	if dt <= 0 {
		return
	}
	for _, j := range e.active {
		j.Advance(e.now, dt)
		if j.GPUs > 0 {
			e.stats[j.ID].GPUSeconds += float64(j.GPUs) * dt
		}
	}
}

// minFinish returns the earliest predicted completion over the active set
// (+Inf when none).
func (e *engine) minFinish() float64 {
	min := math.Inf(1)
	for _, j := range e.active {
		if f := predictFinish(j, e.now); f < min {
			min = f
		}
	}
	return min
}

// predictFinish predicts job j's completion under its current allocation at
// simulated time now.
func predictFinish(j *job.Job, now float64) float64 {
	if j.GPUs <= 0 {
		return math.Inf(1)
	}
	tput := j.Throughput(j.GPUs)
	if tput <= 0 {
		return math.Inf(1)
	}
	start := now
	if j.FrozenUntil > start {
		start = j.FrozenUntil
	}
	return start + j.RemainingIters()/tput
}

// completeDone retires all active jobs that reached their termination
// condition, in admission order. Returns whether anything completed.
func (e *engine) completeDone() bool {
	changed := false
	kept := e.active[:0]
	for _, j := range e.active {
		if !j.Done() {
			kept = append(kept, j)
			continue
		}
		j.State = job.Completed
		j.CompletionTime = e.now
		j.GPUs = 0
		if !e.cfg.PlacementFree {
			if _, ok := e.cluster.Placement(j.ID); ok {
				if err := e.cluster.Release(j.ID); err != nil {
					panic(err)
				}
			}
		}
		st := e.stats[j.ID]
		st.Finished = true
		st.Completion = e.now
		st.Met = j.MetDeadline()
		e.completed++
		e.logEvent(obs.KindComplete, j.ID, obs.F("met", st.Met))
		e.cfg.Obs.IncCompletion(st.Met)
		if st.Met {
			e.tr.Emit(e.now, tracing.SpanComplete, j.ID,
				tracing.A("iters", j.TotalIters), tracing.A("rescales", j.Rescales))
		} else {
			e.tr.Emit(e.now, tracing.SpanMiss, j.ID,
				tracing.A("iters", j.TotalIters), tracing.A("rescales", j.Rescales))
		}
		e.tr.EndJob(e.now, j.ID, 0, tracing.A("deadline_met", st.Met))
		if j.HasDeadline() {
			e.cfg.Obs.ObserveDeadline(e.now, st.Met,
				obs.DeadlineBudgetRatio(j.SubmitTime, j.Deadline, e.now))
		}
		changed = true
	}
	e.active = kept
	return changed
}

// admitArrivals processes every job whose submission time has come.
func (e *engine) admitArrivals() bool {
	changed := false
	for e.next < len(e.pending) && e.pending[e.next].SubmitTime <= e.now+1e-9 {
		j := e.pending[e.next]
		e.next++
		e.submitted++
		st := &JobResult{ID: j.ID, Class: j.Class, Submit: j.SubmitTime, Deadline: j.Deadline}
		e.stats[j.ID] = st
		// Open the lifecycle root before the admission call so the
		// scheduler's plan span lands under it.
		e.tr.StartJob(e.now, j.ID)
		stop := e.cfg.Obs.Timer()
		admitted := e.sched.Admit(e.now, j, e.active, e.avail())
		e.cfg.Obs.ObserveDecision("admit", stop())
		if admitted {
			j.State = job.Admitted
			e.active = append(e.active, j)
			e.logEvent(obs.KindAdmit, j.ID)
			e.cfg.Obs.IncAdmission("admit")
			e.tr.Emit(e.now, tracing.SpanAdmit, j.ID,
				tracing.A("verdict", "admit"), tracing.A("class", j.Class.String()))
			changed = true
		} else {
			j.State = job.Dropped
			st.Dropped = true
			e.dropped++
			e.logEvent(obs.KindDrop, j.ID, obs.F("reason", "admission control"))
			e.cfg.Obs.IncAdmission("drop")
			e.tr.Emit(e.now, tracing.SpanAdmit, j.ID,
				tracing.A("verdict", "drop"), tracing.A("class", j.Class.String()))
			e.tr.EndJob(e.now, j.ID, 0, tracing.A("outcome", "dropped"))
		}
	}
	return changed
}

// applyFailures processes every failure transition due at the current time:
// a failing server evicts its jobs (they checkpoint and will be re-placed at
// the next reschedule) and its GPUs leave the schedulable pool; a recovered
// server returns its capacity.
func (e *engine) applyFailures() bool {
	changed := false
	for e.nextFail < len(e.failEvents) && e.failEvents[e.nextFail].at <= e.now+1e-9 {
		ev := e.failEvents[e.nextFail]
		e.nextFail++
		reservation := fmt.Sprintf("__down-server-%d__", ev.server)
		if ev.down {
			e.logEvent(obs.KindFailure, "", obs.F("server", ev.server))
			e.downGPUs += e.cluster.Config().GPUsPerServer
			if !e.cfg.PlacementFree {
				block, err := e.cluster.ServerBlock(ev.server)
				if err != nil {
					panic(err)
				}
				for _, id := range e.cluster.JobsOn(block) {
					if err := e.cluster.Release(id); err != nil {
						panic(err)
					}
					if j := e.findActive(id); j != nil {
						// The job's workers died with the node; it
						// resumes from its checkpoint elsewhere.
						j.GPUs = 0
						j.State = job.Admitted
						e.tr.Emit(e.now, tracing.SpanNodeDownRecover, id,
							tracing.A("server", ev.server))
					}
				}
				if err := e.cluster.Reserve(reservation, block); err != nil {
					panic(err)
				}
			}
		} else {
			e.logEvent(obs.KindRecovery, "", obs.F("server", ev.server))
			e.downGPUs -= e.cluster.Config().GPUsPerServer
			if !e.cfg.PlacementFree {
				if err := e.cluster.Release(reservation); err != nil {
					panic(err)
				}
			}
		}
		changed = true
	}
	if changed {
		// Node capacity moved under the scheduler; drop any memoized plans.
		sched.Invalidate(e.sched)
	}
	return changed
}

// reschedule queries the scheduler and applies the new allocation: releasing
// shrunk jobs, placing grown jobs through the buddy allocator (migrating
// others when fragmentation demands it), charging rescale overheads, and
// recording the scheduler's requested wake-up.
func (e *engine) reschedule() {
	stop := e.cfg.Obs.Timer()
	dec := e.sched.Schedule(e.now, e.active, e.avail())
	e.cfg.Obs.ObserveDecision("allocate", stop())
	total := 0
	for _, g := range dec.Alloc {
		total += g
	}
	if total > e.avail() {
		panic(fmt.Sprintf("sim: scheduler %s overcommitted %d/%d GPUs", e.sched.Name(), total, e.avail()))
	}

	type change struct {
		j    *job.Job
		newG int
	}
	var changes []change
	for _, j := range e.active {
		if ng := dec.Alloc[j.ID]; ng != j.GPUs {
			changes = append(changes, change{j, ng})
		}
	}
	// Release every changed job's block first so growth has room, then
	// place in descending size order (buddy-friendly). Remember where each
	// job sat: the freeze charge for a moved job depends on the link its
	// checkpoint crosses (job.MoveCharge — the same formula the live
	// platform stamps FrozenUntil with).
	prev := e.cluster.Placements()
	if !e.cfg.PlacementFree {
		for _, c := range changes {
			if _, ok := e.cluster.Placement(c.j.ID); ok {
				if err := e.cluster.Release(c.j.ID); err != nil {
					panic(err)
				}
			}
		}
		sort.Slice(changes, func(i, k int) bool {
			if changes[i].newG != changes[k].newG {
				return changes[i].newG > changes[k].newG
			}
			return changes[i].j.ID < changes[k].j.ID
		})
		for _, c := range changes {
			if c.newG <= 0 {
				continue
			}
			_, migs, err := e.cluster.AllocateWithMigration(c.j.ID, c.newG)
			if err != nil {
				panic(fmt.Sprintf("sim: placement failed for %s (%d GPUs): %v", c.j.ID, c.newG, err))
			}
			e.res.Migrations += len(migs)
			// Migrated bystanders checkpoint/restore too, paying the wire
			// time of the link their relocation crosses.
			for _, m := range migs {
				e.logEvent(obs.KindMigrate, m.JobID, obs.F("from", m.From), obs.F("to", m.To))
				e.cfg.Obs.IncMigration()
				e.tr.Emit(e.now, tracing.SpanMigrate, m.JobID,
					tracing.A("from", m.From), tracing.A("to", m.To))
				if other := e.findActive(m.JobID); other != nil && !e.cfg.NoOverheads {
					e.freeze(other, other.MoveCharge(e.costs, e.cfg.Topology, m.From, m.To))
				}
			}
		}
	}
	for _, c := range changes {
		started := c.j.GPUs > 0 || c.j.DoneIters > 0
		if c.newG > 0 {
			if started {
				e.tr.Emit(e.now, tracing.SpanRescale, c.j.ID,
					tracing.A("gpus", c.newG), tracing.A("was", c.j.GPUs))
			} else {
				e.tr.Emit(e.now, tracing.SpanPlace, c.j.ID,
					tracing.A("gpus", c.newG))
			}
		}
		c.j.GPUs = c.newG
		if c.newG > 0 {
			c.j.State = job.Running
		} else {
			c.j.State = job.Admitted
		}
		if c.newG > 0 && started && !e.cfg.NoOverheads {
			e.freeze(c.j, e.moveCharge(c.j, prev))
		}
	}
	e.wake = dec.Wake
}

// moveCharge prices the freeze a placement change costs j: the in-place
// rescale overhead plus the checkpoint's wire time over the crossed link.
// A job resuming from preemption has no previous block — its bytes come
// from wherever it was parked, priced conservatively at the cross-rack
// tier (MoveOverheadSec). The placement-free ablation models no links and
// keeps the plain rescale overhead.
func (e *engine) moveCharge(j *job.Job, prev map[string]topology.Block) float64 {
	if e.cfg.PlacementFree {
		return j.RescaleOverheadSec
	}
	from, had := prev[j.ID]
	to, has := e.cluster.Placement(j.ID)
	if !had || !has {
		return j.MoveOverheadSec()
	}
	return j.MoveCharge(e.costs, e.cfg.Topology, from, to)
}

func (e *engine) freeze(j *job.Job, charge float64) {
	until := e.now + charge
	if until > j.FrozenUntil {
		j.FrozenUntil = until
	}
	e.res.Rescales++
	e.stats[j.ID].Rescales++
	// Charge the rescale against the job's own SafetyRescales budget: the
	// scheduler's next replan sees it via rescaleMargin.
	j.Rescales++
	e.logEvent(obs.KindRescale, j.ID, obs.F("gpus", j.GPUs))
	e.cfg.Obs.IncRescale()
	e.cfg.Obs.IncJobRescale(j.ID)
}

func (e *engine) findActive(id string) *job.Job {
	for _, j := range e.active {
		if j.ID == id {
			return j
		}
	}
	return nil
}

// sample records a timeline point with the current utilization and Eq. 8
// cluster efficiency.
func (e *engine) sample() {
	used := 0
	eff := 0.0
	running := 0
	for _, j := range e.active {
		if j.GPUs <= 0 {
			continue
		}
		running++
		used += j.GPUs
		eff += jobEfficiency(j)
	}
	e.cfg.Obs.SetUsedGPUs(used)
	e.cfg.Obs.SetClusterEfficiency(eff / float64(e.g))
	e.res.Samples = append(e.res.Samples, Sample{
		Time:              e.now,
		UsedGPUs:          used,
		ClusterEfficiency: eff / float64(e.g),
		Submitted:         e.submitted,
		Admitted:          e.submitted - e.dropped,
		Running:           running,
		Completed:         e.completed,
		Dropped:           e.dropped,
	})
}

// jobEfficiency is job j's contribution to Eq. 8: its current throughput
// normalized by its single-GPU throughput. When the memory floor prevents a
// single-GPU measurement, the per-GPU throughput at the minimum feasible
// count approximates it.
func jobEfficiency(j *job.Job) float64 {
	t1 := j.Curve.At(1)
	if t1 <= 0 {
		minW := j.Curve.MinWorkers()
		if minW <= 0 {
			return 0
		}
		t1 = j.Curve.At(minW) / float64(minW)
	}
	return j.Throughput(j.GPUs) / t1
}

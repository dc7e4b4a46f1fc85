package sim_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/job"
	"github.com/elasticflow/elasticflow/internal/obs"
	"github.com/elasticflow/elasticflow/internal/obs/tracing"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/throughput"
	"github.com/elasticflow/elasticflow/internal/topology"
	"github.com/elasticflow/elasticflow/internal/validate"
)

// randomWorkload builds a seeded workload: mixed deadlines, rescale
// overheads and a best-effort share, all derived from one explicit rand
// source.
func randomWorkload(seed int64, n int) []*job.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]*job.Job, 0, n)
	for i := 0; i < n; i++ {
		iters := 50 + rng.Float64()*400
		submit := rng.Float64() * 500
		j := &job.Job{
			ID:          fmt.Sprintf("r%03d", i),
			GlobalBatch: 8,
			TotalIters:  iters,
			SubmitTime:  submit,
			// Tightness relative to the single-GPU duration (tput 1).
			Deadline:           submit + (0.6+rng.Float64()*2.4)*iters,
			RescaleOverheadSec: rng.Float64() * 5,
			Class:              job.SLO,
			Curve:              throughput.MustCurve(map[int]float64{1: 1, 2: 1.5, 4: 2}),
			MinGPUs:            1,
			MaxGPUs:            4,
		}
		if rng.Intn(5) == 0 {
			j.Class = job.BestEffort
			j.Deadline = math.Inf(1)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// FuzzSimDeterminism replays arbitrary seeded workloads, topologies and
// failure windows twice under the full observability stack: both runs must
// produce a byte-identical Result and span trail, and the Result must pass
// validate.Audit. A divergence means run-to-run state leaks into the event
// loop (map order, shared scratch, wall clocks); an Audit violation is a
// simulator bug.
func FuzzSimDeterminism(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(1), false)
	f.Add(int64(11), uint8(80), uint8(3), true)
	f.Add(int64(42), uint8(2), uint8(0), false)
	f.Add(int64(-7), uint8(200), uint8(2), true)
	f.Fuzz(func(t *testing.T, seed int64, nJobs, servers uint8, withFailure bool) {
		n := int(nJobs)%120 + 2
		srv := 1 << (int(servers) % 3) // 1, 2 or 4 servers (buddy topology wants powers of two)
		topo := topology.Config{Servers: srv, GPUsPerServer: 4}
		var failures []sim.Failure
		if withFailure {
			// Derive the window from the seed so the corpus explores both
			// mid-run and post-drain failures.
			start := float64(uint64(seed)%700) + 1
			failures = []sim.Failure{{Server: int(uint64(seed) % uint64(srv)), StartSec: start, DurationSec: 200}}
		}
		run := func() (sim.Result, []tracing.Span) {
			tr := tracing.New(7)
			o := obs.New(obs.Options{Tracer: tr})
			ef := core.New(core.Options{SlotSec: 1, PowerOfTwo: true}).WithObs(o)
			res, err := sim.Run(sim.Config{
				Topology:     topo,
				Scheduler:    ef,
				RecordEvents: true,
				SampleSec:    50,
				Failures:     failures,
				Obs:          o,
			}, randomWorkload(seed, n), "fuzz")
			if err != nil {
				t.Fatal(err)
			}
			return res, tr.Spans()
		}
		firstRes, firstSpans := run()
		secondRes, secondSpans := run()
		if got, want := fmt.Sprintf("%+v", secondRes), fmt.Sprintf("%+v", firstRes); got != want {
			t.Errorf("Result diverged between identical runs (seed=%d jobs=%d servers=%d fail=%v):\nfirst:  %s\nsecond: %s",
				seed, n, srv, withFailure, want, got)
		}
		if got, want := fmt.Sprintf("%+v", secondSpans), fmt.Sprintf("%+v", firstSpans); got != want {
			t.Errorf("span trail diverged between identical runs (seed=%d jobs=%d servers=%d fail=%v)", seed, n, srv, withFailure)
		}
		for _, v := range validate.Audit(firstRes, srv*topo.GPUsPerServer) {
			t.Errorf("audit (seed=%d jobs=%d servers=%d fail=%v): %s", seed, n, srv, withFailure, v)
		}
	})
}

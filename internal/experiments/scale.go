package experiments

import (
	"fmt"

	"github.com/elasticflow/elasticflow/internal/core"
	"github.com/elasticflow/elasticflow/internal/sim"
	"github.com/elasticflow/elasticflow/internal/trace"
	"github.com/elasticflow/elasticflow/internal/validate"
)

func init() {
	Registry["scale"] = Scale
}

// Scale is the simulator's self-profile: the Philly-scale trace (2,048 GPUs;
// ~1M jobs at full scale, a seeded prefix under -quick) replayed once through
// the serial event loop, recording trace jobs simulated per wall-clock
// second (the gated jobs_per_sec metric). The result must pass
// validate.Audit, so a throughput figure is never reported for an
// inconsistent simulation. Wall time comes from the injected Options.Clock;
// with none the rate columns read zero but the run and its audit still
// execute.
func Scale(o Options) (Table, error) {
	e := newEnv()
	tr := trace.PhillyScale(o.scale(1_000_000, 400), 977)
	jobs, err := tr.Jobs(e.prof, e.est)
	if err != nil {
		return Table{}, err
	}
	start := o.now()
	res, err := sim.Run(sim.Config{
		Topology:  topoFor(tr.GPUs),
		Scheduler: core.NewDefault(),
		// ~1M arrivals span ~100 simulated days; leave the runaway guard
		// far above that but still finite.
		MaxSimSec: 5e8,
	}, jobs, tr.Name)
	if err != nil {
		return Table{}, err
	}
	wall := o.now().Sub(start).Seconds()
	if violations := validate.Audit(res, tr.GPUs); len(violations) > 0 {
		return Table{}, fmt.Errorf("scale: %s failed the invariant audit: %s (+%d more)",
			tr.Name, violations[0], len(violations)-1)
	}
	jps := perSec(len(jobs), wall)
	return Table{
		ID:      "scale",
		Title:   "Simulator throughput (Philly-scale trace, serial event loop)",
		Columns: []string{"jobs", "DSR", "sim wall (s)", "jobs/sec"},
		Rows: [][]string{{
			fmt.Sprintf("%d", len(jobs)), f3(res.DeadlineSatisfactoryRatio()), f2(wall), f2(jps),
		}},
		Metrics: map[string]float64{"jobs_per_sec": jps},
	}, nil
}

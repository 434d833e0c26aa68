package main

import (
	"bytes"
	"context"
	"time"

	"heteroos/internal/exp"
	"heteroos/internal/fleet"
	tables "heteroos/internal/metrics"
	"heteroos/internal/obs"
)

// figureRun runs one paper figure through exp.Experiment.Run. An
// operation is a sweep cell; rows is the table height a correct run
// renders.
func figureRun(id string, quick bool, rows int) func(context.Context, uint64, bool) *rep {
	return func(ctx context.Context, seed uint64, traced bool) *rep {
		r := &rep{}
		e, ok := exp.ByID(id)
		if !ok {
			r.ops = 1
			r.fail(1, "no experiment %q", id)
			return r
		}
		p := &sweepProbe{}
		o := exp.Options{Seed: seed, Quick: quick, Workers: workers, NewBackend: p.newBackend}
		if traced {
			o.NewObs = p.newObs
			o.ProfileEpochs = true
		}
		// A failed sweep returns before its other cells finish; cancel
		// them so none outlives the repetition.
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		start := time.Now()
		res, err := e.Run(ctx, o)
		r.wall = time.Since(start)
		r.ops = max(p.cells(), 1)
		if err != nil {
			r.fail(r.ops, "%s: %v", id, err)
			return r
		}
		r.tables, r.notes = []*tables.Table{res.Table}, res.Notes
		if got := res.Table.Rows(); got != rows {
			r.fail(r.ops, "%s renders %d rows, want %d", id, got, rows)
		}
		checkFinite(r, res.Table)
		// Each cell is an operation, timed from its backend builder call
		// to its last Charge; rest is the sweep's time outside all cells.
		r.slots = workers
		var from, to time.Time
		for _, m := range p.meters {
			if m.charges == 0 {
				r.fail(1, "%s: a cell priced no epoch", id)
				continue
			}
			r.setups = append(r.setups, m.first.Sub(m.built))
			r.opWall = append(r.opWall, m.last.Sub(m.built))
			r.vmEpochs += m.charges
			if from.IsZero() || m.built.Before(from) {
				from = m.built
			}
			if m.last.After(to) {
				to = m.last
			}
		}
		r.rest = max(r.wall-to.Sub(from), 0)
		if traced {
			sweepLayers(r, p)
		}
		return r
	}
}

// checkFinite fails the repetition if any rendered value is NaN or
// infinite.
func checkFinite(r *rep, t *tables.Table) {
	var b bytes.Buffer
	t.RenderCSV(&b)
	if bytes.Contains(b.Bytes(), []byte("NaN")) || bytes.Contains(b.Bytes(), []byte("Inf")) {
		r.fail(r.ops, "%q renders a non-finite value", t.Title)
	}
}

// fleetRun runs a bundled fleet script, reseeded, round by round. An
// operation is a round. roundEpochs, when not 0, replaces the script's
// epochs per round.
func fleetRun(script string, roundEpochs int) func(context.Context, uint64, bool) *rep {
	return func(ctx context.Context, seed uint64, traced bool) *rep {
		r := &rep{ops: 1, slots: 1}
		var o *obs.Obs
		if traced {
			o = obs.New()
		}
		// The set-up (script load and NewCluster), every round and Result
		// are timed operations, one after another.
		start := time.Now()
		opStart := start
		endOp := func() {
			now := time.Now()
			r.opWall = append(r.opWall, now.Sub(opStart))
			opStart = now
		}
		sc, err := fleet.LoadBundled(script)
		if err != nil {
			r.fail(1, "%v", err)
			return r
		}
		sc.Seed = seed
		if roundEpochs != 0 {
			sc.RoundEpochs = roundEpochs
		}
		c, err := fleet.NewCluster(sc, fleet.Options{Workers: workers, Obs: o})
		if err != nil {
			r.fail(1, "%v", err)
			return r
		}
		endOp()
		r.setups = []time.Duration{r.opWall[0]}
		r.ops = sc.Rounds

		var fl *fleetProbe
		if traced {
			if fl, err = newFleetProbe(c); err != nil {
				r.fail(r.ops, "%v", err)
				return r
			}
		}
		for round := 0; round < sc.Rounds; round++ {
			opStart = time.Now()
			if err := c.StepRound(ctx); err != nil {
				r.fail(sc.Rounds-round, "%v", err)
				return r
			}
			endOp()
			if fl != nil {
				fl.endRound(r.opWall[len(r.opWall)-1])
			}
		}
		res, err := c.Result()
		endOp()
		if fl != nil {
			fl.result = r.opWall[len(r.opWall)-1]
		}
		r.wall = time.Since(start)
		for _, d := range r.opWall {
			r.rest -= d
		}
		r.rest = max(r.rest+r.wall, 0)
		if err != nil {
			r.fail(r.ops, "%v", err)
			return r
		}
		r.tables = fleetTables(res)
		checkFleet(r, res)
		for i := range res.VMs {
			r.vmEpochs += uint64(res.VMs[i].Res.Epochs)
		}
		if fl != nil {
			fleetLayers(r, fl, res)
		}
		return r
	}
}

// fleetTables renders every output table of a fleet run.
func fleetTables(res *fleet.Result) []*tables.Table {
	return []*tables.Table{res.AppTable(), res.Table(), res.MigrationTable(), res.TimelineTable()}
}

// checkFleet cross-checks the fleet's books: every VM not shut down is
// resident on exactly one host, and the lost-VM count agrees between
// the per-VM records and the timeline.
func checkFleet(r *rep, res *fleet.Result) {
	resident, lost := 0, 0
	for i := range res.VMs {
		v := &res.VMs[i]
		if v.ShutdownRound < 0 {
			resident++
		}
		if v.Lost {
			lost++
		}
	}
	onHosts := 0
	for _, h := range res.HostRuns {
		onHosts += h.VMs
	}
	if onHosts != resident {
		r.fail(r.ops, "hosts hold %d VMs, but %d VMs are not shut down", onHosts, resident)
	}
	if n := len(res.Timeline); n == 0 || res.Timeline[n-1].Lost != lost {
		r.fail(r.ops, "timeline lost count disagrees with the %d lost VMs", lost)
	}
}

package sim

import "ebda/internal/obs"

// Simulator instrumentation. Per-event totals (flits, packets, cycles)
// are accumulated in plain Simulator fields during a run and folded into
// these counters once per run, so the cycle loop pays nothing for
// observability. Diagnose outcomes are labeled series hoisted here so the
// watchdog path never formats a name.
var (
	obsRuns = obs.NewCounter("ebda_sim_runs_total",
		"simulation runs completed (including deadlocked runs)")
	obsCycles = obs.NewCounter("ebda_sim_cycles_total",
		"router cycles simulated across all runs")
	obsInjectedPackets = obs.NewCounter("ebda_sim_injected_packets_total",
		"packets injected at sources")
	obsDeliveredPackets = obs.NewCounter("ebda_sim_delivered_packets_total",
		"packets fully delivered (tail flit ejected)")
	obsInjectedFlits = obs.NewCounter("ebda_sim_injected_flits_total",
		"flits injected at sources")
	obsDeliveredFlits = obs.NewCounter("ebda_sim_delivered_flits_total",
		"flits ejected at destinations")
	obsHeadsRouted = obs.NewCounter("ebda_sim_heads_routed_total",
		"routing-function calls: one per packet head at each router it is routed at")
	obsRequestsBucketed = obs.NewCounter("ebda_sim_requests_bucketed_total",
		"switch requests collected by output port")
	obsFlitsMoved = obs.NewCounter("ebda_sim_flits_moved_total",
		"flits sent through a switch (link or ejection)")
	obsDeadlocks = obs.NewCounter("ebda_sim_deadlocks_total",
		"runs aborted by the progress watchdog")
	obsDiagCycle = obs.NewCounter(
		obs.Label("ebda_sim_diagnose_total", "outcome", "cycle"),
		"deadlock diagnoses by outcome")
	obsDiagNoCycle = obs.NewCounter(
		obs.Label("ebda_sim_diagnose_total", "outcome", "no_cycle"),
		"deadlock diagnoses by outcome")

	phaseRun   = obs.NewPhase("sim.run", "")
	phaseSeeds = obs.NewPhase("sim.seeds", "")
)

// recordObs folds one finished run's totals into the process counters.
func (s *Simulator) recordObs(res Result) {
	obsRuns.Inc()
	obsCycles.Add(uint64(res.Cycles))
	obsInjectedPackets.Add(uint64(s.injected))
	obsDeliveredPackets.Add(uint64(s.delivered))
	obsInjectedFlits.Add(uint64(s.injectedFlits))
	obsDeliveredFlits.Add(uint64(s.deliveredFlits))
	obsHeadsRouted.Add(uint64(s.headsRouted))
	obsRequestsBucketed.Add(uint64(s.requestsBucketed))
	obsFlitsMoved.Add(uint64(s.flitsMoved))
	if res.Deadlocked {
		obsDeadlocks.Inc()
	}
}

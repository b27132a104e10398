package velodrome

import "repro/internal/obs"

// Pre-resolved handles on the obs.Default registry. Velodrome's graph
// state is already counted by the hot path (node/edge arena lengths,
// transaction blocks), so FlushMetrics publishes it without any new
// per-event work (DESIGN.md "Observability").
var (
	mCheckerEvents = obs.Default.Counter("checker.events")
	mEvents        = obs.Default.Counter("checker.velodrome.events")
	mNodes         = obs.Default.Counter("checker.velodrome.nodes")
	mEdges         = obs.Default.Counter("checker.velodrome.edges")
	mBlocks        = obs.Default.Counter("checker.velodrome.blocks")
	mViolations    = obs.Default.Counter("checker.velodrome.violations")
)

// flushedCounts remembers what FlushMetrics already published so repeated
// flushes only add deltas.
type flushedCounts struct {
	events, nodes, edges, blocks, violations int
}

// FlushMetrics publishes the checker's telemetry to the obs registry and
// remembers what it flushed, so calling it again only adds the delta.
// Analyze calls it automatically (including the violation count).
//
// Every field is delta-tracked — including violations, which used to be
// added in full on every call, double-counting when the fused pipeline
// flushes both per batch window and at the end of the analysis. The obs
// contract (DESIGN.md "Observability") is that a checker's counters reflect
// each analysis exactly once no matter how many times it flushes.
func (c *Checker) FlushMetrics(violations int) {
	f := &c.flushed
	mCheckerEvents.Add(int64(c.events - f.events))
	mEvents.Add(int64(c.events - f.events))
	mNodes.Add(int64(len(c.nodes) - f.nodes))
	mEdges.Add(int64(len(c.edges) - f.edges))
	mBlocks.Add(int64(c.blocks - f.blocks))
	if violations > f.violations {
		mViolations.Add(int64(violations - f.violations))
		f.violations = violations
	}
	f.events = c.events
	f.nodes = len(c.nodes)
	f.edges = len(c.edges)
	f.blocks = c.blocks
}

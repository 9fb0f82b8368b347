package query

import "avfda/internal/core"

// ReliabilityMetric is one manufacturer's reliability summary
// (core.ReliabilityMetric).
type ReliabilityMetric = core.ReliabilityMetric

// Reliability computes the per-manufacturer reliability metrics from the
// study's exposure summary (core.Reliability).
func Reliability(x *core.Exposure) ([]ReliabilityMetric, error) { return core.Reliability(x) }

// Reliability reports the engine's per-manufacturer reliability metrics
// from the exposure summary its View sums from the columns; no table is
// decoded.
func (e *Engine) Reliability() ([]ReliabilityMetric, error) { return Reliability(e.v.Exposure()) }

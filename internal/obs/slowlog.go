package obs

import (
	"context"
	"fmt"
	"log/slog"
	"time"
)

// SlowLog emits one structured JSON line per query whose total
// duration crossed the threshold. The line carries the full stage
// breakdown and scan counters so a slow query is diagnosable from the
// log alone, without re-running it under a profiler.
//
// Schema (all durations in fractional milliseconds):
//
//	msg="slow query" trace_id collection op k nq cached shards total_ms
//	stages.{admission,queue,run,scan,refine,cold}_ms
//	counters.{nodes,leaves,bisect_steps,candidates,distance_comps,
//	          exact_comps,page_reads,cold_scanned,cold_pruned,cold_faults,
//	          cold_hits}
//
// Every stage key is always present (zero when the stage was not
// touched) so log consumers can index the schema statically.
type SlowLog struct {
	// Threshold is the total-duration cutoff; zero or negative
	// disables logging.
	Threshold time.Duration
	// Logger receives the records; nil disables logging.
	Logger *slog.Logger
}

// Enabled reports whether the slow log would ever emit.
func (sl *SlowLog) Enabled() bool {
	return sl != nil && sl.Logger != nil && sl.Threshold > 0
}

// MaybeLog emits one record if total crossed the threshold. tr may be
// nil (an untraced slow request still logs its total).
func (sl *SlowLog) MaybeLog(collection, op string, tr *Trace, total time.Duration) {
	if !sl.Enabled() || total < sl.Threshold {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	c := tr.Counters()
	sl.Logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
		slog.String("trace_id", fmt.Sprintf("%016x", tr.ID())),
		slog.String("collection", collection),
		slog.String("op", op),
		slog.Int("k", tr.K()),
		slog.Int("nq", tr.NQ()),
		slog.Bool("cached", tr.Cached()),
		slog.Int("shards", len(tr.Shards())),
		slog.Float64("total_ms", ms(total)),
		slog.Group("stages",
			slog.Float64("admission_ms", ms(tr.Span(StageAdmission))),
			slog.Float64("queue_ms", ms(tr.Span(StageQueue))),
			slog.Float64("run_ms", ms(tr.Span(StageRun))),
			slog.Float64("scan_ms", ms(tr.Span(StageScan))),
			slog.Float64("refine_ms", ms(tr.Span(StageRefine))),
			slog.Float64("cold_ms", ms(tr.Span(StageCold))),
		),
		slog.Group("counters",
			slog.Int64("nodes", c.Nodes),
			slog.Int64("leaves", c.Leaves),
			slog.Int64("bisect_steps", c.BisectSteps),
			slog.Int64("candidates", c.Candidates),
			slog.Int64("distance_comps", c.DistanceComps),
			slog.Int64("exact_comps", c.ExactComps),
			slog.Int64("page_reads", c.PageReads),
			slog.Int64("cold_scanned", c.ColdScanned),
			slog.Int64("cold_pruned", c.ColdPruned),
			slog.Int64("cold_faults", c.ColdFaults),
			slog.Int64("cold_hits", c.ColdHits),
		),
	)
}

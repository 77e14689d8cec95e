package obs

import (
	"fmt"
	"sort"
	"sync"

	"fedomd/internal/telemetry"
)

// PartyObservation is one party's view of a round as seen by the
// coordinator: how long its train step took end-to-end (including transport)
// and whether it was dropped from the aggregate.
type PartyObservation struct {
	Name         string
	TrainSeconds float64
	Dropped      bool
}

// RoundObservation is the per-round feed for RoundObservers: the fields of
// fed.RoundStats that health rules consume, flattened here so obs does not
// import fed (fed imports obs).
type RoundObservation struct {
	Round       int
	TrainLoss   float64
	ValAcc      float64
	TestAcc     float64
	BestValAcc  float64 // best validation accuracy up to and including Round
	Evaluated   bool
	Degraded    bool
	Dropped     int // parties excluded this round
	Quarantined int // parties currently benched
	NonFinite   int // non-finite screens tripped this round
	CodecResets int // wire-codec reference-chain resets this round
	BytesUp     int64
	BytesDown   int64
	Parties     []PartyObservation

	// Async buffered-aggregation fields, zero for synchronous rounds.
	Async          bool
	BufferFill     int     // updates folded this round
	BufferTarget   int     // the buffer threshold K
	BufferStalled  bool    // buffer missed K at the round deadline
	StalenessP99   float64 // p99 applied staleness of the folded updates
	StalenessLimit float64 // the MaxStaleness eviction bound
}

// RoundObserver consumes one observation per finished round. ctx is the
// round span's context so observers can attach trace events causally.
type RoundObserver interface {
	ObserveRound(ctx SpanContext, o RoundObservation)
}

// MultiRoundObserver fans one observation out to several observers,
// skipping nils.
type MultiRoundObserver []RoundObserver

// ObserveRound implements RoundObserver.
func (m MultiRoundObserver) ObserveRound(ctx SpanContext, o RoundObservation) {
	for _, ob := range m {
		if ob != nil {
			ob.ObserveRound(ctx, o)
		}
	}
}

// Event levels for health rules.
const (
	LevelWarn     = "warn"
	LevelCritical = "critical"
)

// Health rule names (also the trace-event rule attribute values).
const (
	RuleNonFinite     = "non_finite"
	RuleStragglerSkew = "straggler_skew"
	RuleAccuracyDrop  = "accuracy_regression"
	RuleQuarantine    = "quarantine_growth"
	RuleCodecResets   = "codec_resets"
	RuleStalenessHigh = "staleness_high"
	RuleBufferStall   = "buffer_stall"
)

// HealthEvent is one fired rule: which round, which rule, how bad, and the
// measured value against its threshold.
type HealthEvent struct {
	Round     int
	Rule      string
	Level     string
	Message   string
	Value     float64
	Threshold float64
}

func (e HealthEvent) String() string {
	return fmt.Sprintf("[%s] round %d %s: %s", e.Level, e.Round, e.Rule, e.Message)
}

// HealthRule inspects one round observation (with access to the monitor's
// running state) and returns zero or more events.
type HealthRule func(h *Health, o RoundObservation) []HealthEvent

// HealthConfig tunes the default rules. The zero value selects the defaults
// noted per field.
type HealthConfig struct {
	// StragglerFactor trips straggler_skew when the slowest-party (p99)
	// train time exceeds the median by this factor. Default 4.
	StragglerFactor float64
	// StragglerMinSeconds suppresses straggler_skew below this absolute
	// p99, so microsecond-scale local runs don't alarm on scheduler noise.
	// Default 1ms.
	StragglerMinSeconds float64
	// AccuracyDropWarn trips accuracy_regression when validation accuracy
	// falls this far below the best seen. Default 0.05 (5 points).
	AccuracyDropWarn float64
	// QuarantineCriticalFrac trips quarantine_growth at critical level when
	// this fraction of parties is benched. Default 0.5.
	QuarantineCriticalFrac float64
	// CodecResetWarn trips codec_resets when a round sees at least this
	// many reference-chain resets. Default 1.
	CodecResetWarn int
	// StalenessWarnFrac trips staleness_high when a fold's p99 applied
	// staleness reaches this fraction of the MaxStaleness budget (critical
	// at the budget itself, where updates start being evicted). Default 0.75.
	StalenessWarnFrac float64
	// BufferStallCritical escalates buffer_stall to critical after this many
	// consecutive stalled rounds. Default 3.
	BufferStallCritical int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.StragglerFactor <= 0 {
		c.StragglerFactor = 4
	}
	if c.StragglerMinSeconds <= 0 {
		c.StragglerMinSeconds = 1e-3
	}
	if c.AccuracyDropWarn <= 0 {
		c.AccuracyDropWarn = 0.05
	}
	if c.QuarantineCriticalFrac <= 0 {
		c.QuarantineCriticalFrac = 0.5
	}
	if c.CodecResetWarn <= 0 {
		c.CodecResetWarn = 1
	}
	if c.StalenessWarnFrac <= 0 {
		c.StalenessWarnFrac = 0.75
	}
	if c.BufferStallCritical <= 0 {
		c.BufferStallCritical = 3
	}
	return c
}

// Health is the run-health monitor: a RoundObserver applying a rule set per
// round, retaining fired events for the final report and mirroring them as
// warn/critical trace events plus telemetry counters. Safe for concurrent
// use; nil is inert.
type Health struct {
	cfg    HealthConfig
	rules  []HealthRule
	tracer *Tracer
	rec    telemetry.Recorder

	mu           sync.Mutex
	events       []HealthEvent
	bestAcc      float64
	hasBest      bool
	lastQ        int
	consecStalls int // consecutive buffer_stall rounds before this one
}

// NewHealth builds a monitor with the default rule set. tracer and rec may
// be nil; events are then only retained for Events().
func NewHealth(cfg HealthConfig, tracer *Tracer, rec telemetry.Recorder) *Health {
	return &Health{
		cfg:    cfg.withDefaults(),
		rules:  DefaultRules(),
		tracer: tracer,
		rec:    telemetry.Or(rec),
	}
}

// DefaultRules returns the standard rule set, in evaluation order.
func DefaultRules() []HealthRule {
	return []HealthRule{
		ruleNonFinite,
		ruleStragglerSkew,
		ruleAccuracyRegression,
		ruleQuarantineGrowth,
		ruleCodecResets,
		ruleStalenessHigh,
		ruleBufferStall,
	}
}

// ObserveRound implements RoundObserver: applies every rule, records fired
// events, and emits them as trace events and counters.
func (h *Health) ObserveRound(ctx SpanContext, o RoundObservation) {
	if h == nil {
		return
	}
	h.mu.Lock()
	var fired []HealthEvent
	for _, rule := range h.rules {
		fired = append(fired, rule(h, o)...)
	}
	// State updates happen after rules so "regression vs best" compares
	// against the best of strictly earlier rounds.
	if o.Evaluated && (!h.hasBest || o.ValAcc > h.bestAcc) {
		h.bestAcc, h.hasBest = o.ValAcc, true
	}
	h.lastQ = o.Quarantined
	if o.Async {
		if o.BufferStalled {
			h.consecStalls++
		} else {
			h.consecStalls = 0
		}
	}
	h.events = append(h.events, fired...)
	h.mu.Unlock()

	for _, e := range fired {
		h.tracer.Event(ctx, MetricHealthEvent, e.Level,
			KV(AttrRule, e.Rule),
			KV(AttrRound, e.Round),
			KV(AttrMessage, e.Message),
			KV(AttrValue, e.Value),
			KV(AttrThreshold, e.Threshold),
		)
		if e.Level == LevelCritical {
			h.rec.Count(MetricHealthCritical, 1)
		} else {
			h.rec.Count(MetricHealthWarn, 1)
		}
	}
}

// Events returns a copy of every event fired so far, in firing order.
func (h *Health) Events() []HealthEvent {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HealthEvent(nil), h.events...)
}

func ruleNonFinite(h *Health, o RoundObservation) []HealthEvent {
	if o.NonFinite == 0 {
		return nil
	}
	level := LevelWarn
	if o.NonFinite > 1 {
		level = LevelCritical
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleNonFinite, Level: level,
		Message:   fmt.Sprintf("%d non-finite update(s) screened", o.NonFinite),
		Value:     float64(o.NonFinite),
		Threshold: 1,
	}}
}

func ruleStragglerSkew(h *Health, o RoundObservation) []HealthEvent {
	if len(o.Parties) < 2 {
		return nil
	}
	times := make([]float64, 0, len(o.Parties))
	for _, p := range o.Parties {
		if p.TrainSeconds > 0 {
			times = append(times, p.TrainSeconds)
		}
	}
	if len(times) < 2 {
		return nil
	}
	sort.Float64s(times)
	median := times[len(times)/2]
	p99 := times[(len(times)*99)/100]
	if p99 < h.cfg.StragglerMinSeconds || median <= 0 {
		return nil
	}
	factor := p99 / median
	if factor < h.cfg.StragglerFactor {
		return nil
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleStragglerSkew, Level: LevelWarn,
		Message: fmt.Sprintf("slowest party %.3fs vs median %.3fs (%.1fx)",
			p99, median, factor),
		Value:     factor,
		Threshold: h.cfg.StragglerFactor,
	}}
}

func ruleAccuracyRegression(h *Health, o RoundObservation) []HealthEvent {
	if !o.Evaluated || !h.hasBest {
		return nil
	}
	drop := h.bestAcc - o.ValAcc
	if drop < h.cfg.AccuracyDropWarn {
		return nil
	}
	level := LevelWarn
	if drop >= 2*h.cfg.AccuracyDropWarn {
		level = LevelCritical
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleAccuracyDrop, Level: level,
		Message: fmt.Sprintf("val acc %.4f dropped %.4f below best %.4f",
			o.ValAcc, drop, h.bestAcc),
		Value:     drop,
		Threshold: h.cfg.AccuracyDropWarn,
	}}
}

func ruleQuarantineGrowth(h *Health, o RoundObservation) []HealthEvent {
	if o.Quarantined <= h.lastQ || len(o.Parties) == 0 {
		return nil
	}
	frac := float64(o.Quarantined) / float64(len(o.Parties)+o.Quarantined)
	level := LevelWarn
	if frac >= h.cfg.QuarantineCriticalFrac {
		level = LevelCritical
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleQuarantine, Level: level,
		Message: fmt.Sprintf("quarantine grew %d -> %d parties",
			h.lastQ, o.Quarantined),
		Value:     float64(o.Quarantined),
		Threshold: float64(h.lastQ),
	}}
}

// ruleStalenessHigh alarms when the staleness distribution of folded updates
// drifts toward the eviction bound: at p99 ≥ MaxStaleness the tail of the
// fleet is about to be evicted every round (the discount has effectively
// silenced it already), which usually means BufferK is too high or the slow
// parties need quarantining.
func ruleStalenessHigh(h *Health, o RoundObservation) []HealthEvent {
	if !o.Async || o.StalenessLimit <= 0 || o.BufferFill == 0 {
		return nil
	}
	warnAt := h.cfg.StalenessWarnFrac * o.StalenessLimit
	if o.StalenessP99 < warnAt {
		return nil
	}
	level := LevelWarn
	if o.StalenessP99 >= o.StalenessLimit {
		level = LevelCritical
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleStalenessHigh, Level: level,
		Message: fmt.Sprintf("p99 applied staleness %.0f approaching MaxStaleness %.0f",
			o.StalenessP99, o.StalenessLimit),
		Value:     o.StalenessP99,
		Threshold: warnAt,
	}}
}

// ruleBufferStall alarms when an async round's buffer failed to reach K
// before the round deadline — the fleet is not producing updates fast enough
// for the configured buffer, and folds are running under-filled. Escalates
// to critical after BufferStallCritical consecutive stalled rounds.
func ruleBufferStall(h *Health, o RoundObservation) []HealthEvent {
	if !o.Async || !o.BufferStalled {
		return nil
	}
	level := LevelWarn
	if h.consecStalls+1 >= h.cfg.BufferStallCritical {
		level = LevelCritical
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleBufferStall, Level: level,
		Message: fmt.Sprintf("buffer reached %d of %d before the round deadline",
			o.BufferFill, o.BufferTarget),
		Value:     float64(o.BufferFill),
		Threshold: float64(o.BufferTarget),
	}}
}

func ruleCodecResets(h *Health, o RoundObservation) []HealthEvent {
	if o.CodecResets < h.cfg.CodecResetWarn {
		return nil
	}
	return []HealthEvent{{
		Round: o.Round, Rule: RuleCodecResets, Level: LevelWarn,
		Message:   fmt.Sprintf("%d codec reference-chain reset(s)", o.CodecResets),
		Value:     float64(o.CodecResets),
		Threshold: float64(h.cfg.CodecResetWarn),
	}}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fedomd/internal/mat"
	"fedomd/internal/nn"
	"fedomd/internal/obs"
	"fedomd/internal/telemetry"
)

// Service errors surfaced to callers (and mapped to HTTP statuses).
var (
	// ErrNoModel means no checkpoint has been loaded yet.
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrClosed means the service has been shut down.
	ErrClosed = errors.New("serve: service closed")
	// ErrOverloaded means the request queue was full.
	ErrOverloaded = errors.New("serve: request queue full")
)

// Config tunes the service.
type Config struct {
	// MaxBatch bounds the nodes coalesced into one forward pass; values
	// <= 1 disable coalescing (every request is its own batch) — the
	// "unbatched" baseline the bench compares against. Default 64.
	MaxBatch int
	// Linger is how long batch formation waits for more requests after the
	// first, when the batch is not yet full. Default 1ms.
	Linger time.Duration
	// CacheSize is the total logit-LRU capacity in rows; 0 disables the
	// cache.
	CacheSize int
	// QueueDepth is the request-queue capacity; admission beyond it fails
	// fast with ErrOverloaded. Default 1024.
	QueueDepth int
	// Recorder receives serve/* telemetry. Nil disables it for free.
	Recorder telemetry.Recorder
}

func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	if c.Linger <= 0 {
		c.Linger = time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	return c
}

// modelState is one RCU generation: an immutable inferencer snapshot plus
// its identity. Batches load it once and run entirely against that
// generation, so a concurrent swap never tears a forward pass.
type modelState struct {
	inf     *nn.Inferencer
	round   int
	version uint64
}

// request is one classify call in flight through the batcher.
type request struct {
	nodes      []int
	wantLogits bool
	start      time.Time

	classes []int       // filled by the batch
	logits  [][]float64 // filled when wantLogits (rows shared with the cache)
	round   int
	err     error
	done    chan struct{}
}

// Result is one classify call's outcome.
type Result struct {
	// ModelRound is the training round of the model that answered.
	ModelRound int
	// Classes has the argmax class per queried node, aligned with the
	// request's node order.
	Classes []int
	// Logits has the full logit row per node when requested; rows may be
	// shared with the service's cache and must be treated as read-only.
	Logits [][]float64
}

// Service is the serving plane: a micro-batching classifier over an
// RCU-swappable model snapshot. Safe for concurrent use.
type Service struct {
	cfg   Config
	rec   telemetry.Recorder
	spans obs.Spans // the batch timer; the service keeps no tracer
	cache *logitCache

	state   atomic.Pointer[modelState]
	version atomic.Uint64

	// closeMu serialises queue admission against Close: Classify sends
	// under RLock, Close flips closed under Lock, so every admitted request
	// is in the queue before the drain starts and none arrive after.
	closeMu sync.RWMutex
	closed  bool
	ch      chan *request
	stop    chan struct{}
	drained chan struct{}

	// Lifetime totals for health rules (the Recorder interface is
	// write-only, so the service keeps its own books).
	nRequests atomic.Int64
	nErrors   atomic.Int64
}

// New starts a service with no model loaded; Swap or a Watcher supplies one.
// The caller must Close it.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:     cfg,
		rec:     telemetry.Or(cfg.Recorder),
		spans:   obs.NewSpans(cfg.Recorder, nil),
		cache:   newLogitCache(cfg.CacheSize),
		ch:      make(chan *request, cfg.QueueDepth),
		stop:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	go s.run()
	return s
}

// Swap atomically replaces the served model (RCU: readers holding the old
// generation finish on it) and invalidates the logit cache. inf must be a
// frozen snapshot (nn.NewInferencer); round tags responses.
func (s *Service) Swap(inf *nn.Inferencer, round int) {
	st := &modelState{inf: inf, round: round, version: s.version.Add(1)}
	s.state.Store(st)
	s.cache.Reset()
	s.rec.Count(MetricSwaps, 1)
}

// ModelRound returns the served model's training round, false when no model
// is loaded.
func (s *Service) ModelRound() (int, bool) {
	st := s.state.Load()
	if st == nil {
		return 0, false
	}
	return st.round, true
}

// Classify queues the nodes for the next batch and blocks until it runs (or
// ctx expires — the batch still completes, the caller just stops waiting).
func (s *Service) Classify(ctx context.Context, nodes []int, wantLogits bool) (Result, error) {
	if len(nodes) == 0 {
		return Result{}, fmt.Errorf("serve: empty node list")
	}
	req := &request{
		nodes:      nodes,
		wantLogits: wantLogits,
		start:      time.Now(),
		done:       make(chan struct{}),
	}
	s.closeMu.RLock()
	if s.closed {
		s.closeMu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case s.ch <- req:
		s.closeMu.RUnlock()
	default:
		s.closeMu.RUnlock()
		s.nRequests.Add(1)
		s.nErrors.Add(1)
		s.rec.Count(MetricRequests, 1)
		s.rec.Count(MetricOverload, 1)
		s.rec.Count(MetricErrors, 1)
		return Result{}, ErrOverloaded
	}
	s.rec.Count(MetricRequests, 1)
	s.nRequests.Add(1)
	select {
	case <-req.done:
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
	if req.err != nil {
		return Result{}, req.err
	}
	return Result{ModelRound: req.round, Classes: req.classes, Logits: req.logits}, nil
}

// Close stops the batcher after draining every admitted request — zero
// dropped requests is part of the contract. Idempotent.
func (s *Service) Close() {
	s.closeMu.Lock()
	already := s.closed
	s.closed = true
	s.closeMu.Unlock()
	if already {
		<-s.drained
		return
	}
	close(s.stop)
	<-s.drained
}

// run is the batcher goroutine: take one request, linger briefly for more
// (up to MaxBatch nodes), then execute the coalesced batch. MaxBatch <= 1
// short-circuits the linger so the unbatched baseline measures the same
// code path minus coalescing.
func (s *Service) run() {
	defer close(s.drained)
	timer := time.NewTimer(time.Hour)
	if !timer.Stop() {
		<-timer.C
	}
	batch := make([]*request, 0, 64)
	for {
		select {
		case <-s.stop:
			// Drain: everything admitted before Close is already in the
			// queue (see closeMu), so empty-queue means done.
			for {
				select {
				case r := <-s.ch:
					s.execute([]*request{r})
				default:
					return
				}
			}
		case r := <-s.ch:
			batch = append(batch[:0], r)
			n := len(r.nodes)
			if s.cfg.MaxBatch > 1 && n < s.cfg.MaxBatch {
				timer.Reset(s.cfg.Linger)
			collect:
				for n < s.cfg.MaxBatch {
					select {
					case r2 := <-s.ch:
						batch = append(batch, r2)
						n += len(r2.nodes)
					case <-timer.C:
						break collect
					case <-s.stop:
						break collect
					}
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
			}
			s.rec.Gauge(MetricQueueDepth, float64(len(s.ch)))
			s.execute(batch)
		}
	}
}

// execute runs one coalesced batch against the current model generation:
// cache probe per node, one pooled InferInto over the misses, scatter back.
func (s *Service) execute(batch []*request) {
	st := s.state.Load()
	if st == nil {
		for _, r := range batch {
			s.finish(r, ErrNoModel)
		}
		return
	}
	classes := st.inf.Classes()
	limit := st.inf.Nodes()

	sp := s.spans.Start(obs.SpanContext{}, SpanBatch)
	type missSlot struct {
		r   *request
		pos int // index into r.nodes
		row int // row in the miss batch
	}
	var (
		missIdx   []int
		slots     []missSlot
		missOf    map[int]int // node -> row, dedupes repeats within the batch
		hits      int64
		misses    int64
		nodeCount int
	)
	for _, r := range batch {
		bad := false
		for _, id := range r.nodes {
			if id < 0 || id >= limit {
				r.err = fmt.Errorf("serve: node %d out of range [0,%d)", id, limit)
				bad = true
				break
			}
		}
		if bad {
			continue
		}
		nodeCount += len(r.nodes)
		r.round = st.round
		r.classes = make([]int, len(r.nodes))
		if r.wantLogits {
			r.logits = make([][]float64, len(r.nodes))
		}
		for pos, id := range r.nodes {
			if row, ok := s.cache.Get(st.version, id); ok {
				hits++
				r.classes[pos] = argmax(row)
				if r.wantLogits {
					r.logits[pos] = row
				}
				continue
			}
			// Dedupe within the batch: the same node queried twice costs
			// one forward row, like a cache hit that hasn't landed yet.
			if missOf == nil {
				missOf = make(map[int]int)
			}
			row, seen := missOf[id]
			if !seen {
				row = len(missIdx)
				missIdx = append(missIdx, id)
				missOf[id] = row
				misses++
			} else {
				hits++
			}
			slots = append(slots, missSlot{r: r, pos: pos, row: row})
		}
	}
	if len(missIdx) > 0 {
		out := mat.GetDense(len(missIdx), classes)
		if err := st.inf.InferInto(out, missIdx); err != nil {
			// Bounds were pre-checked, so this is a shape-level bug;
			// surface it on every affected request rather than panicking
			// the batcher.
			for _, r := range batch {
				if r.err == nil {
					r.err = err
				}
			}
		} else {
			rows := make([][]float64, len(missIdx))
			for i, id := range missIdx {
				rows[i] = append([]float64(nil), out.Row(i)...)
				s.cache.Put(st.version, id, rows[i])
			}
			for _, sl := range slots {
				row := rows[sl.row]
				sl.r.classes[sl.pos] = argmax(row)
				if sl.r.wantLogits {
					sl.r.logits[sl.pos] = row
				}
			}
		}
		mat.PutDense(out)
	}
	sp.End()
	s.rec.Count(MetricBatches, 1)
	s.rec.Observe(MetricBatchSize, float64(nodeCount))
	if hits > 0 {
		s.rec.Count(MetricCacheHits, hits)
	}
	if misses > 0 {
		s.rec.Count(MetricCacheMisses, misses)
	}
	for _, r := range batch {
		s.finish(r, r.err)
	}
}

func (s *Service) finish(r *request, err error) {
	r.err = err
	if err != nil {
		s.nErrors.Add(1)
		s.rec.Count(MetricErrors, 1)
	} else {
		s.rec.Observe(MetricRequestSeconds, time.Since(r.start).Seconds())
	}
	close(r.done)
}

// Health evaluates the serve-side health rules: no model loaded (critical),
// lifetime error rate (warn ≥10% over ≥50 requests), queue saturation
// (warn). The events use the obs level taxonomy so they render alongside
// training health.
func (s *Service) Health() []obs.HealthEvent {
	var events []obs.HealthEvent
	round, ok := s.ModelRound()
	if !ok {
		events = append(events, obs.HealthEvent{
			Rule: RuleNoModel, Level: obs.LevelCritical,
			Message: "no model loaded; waiting for a checkpoint",
		})
	}
	req, errs := s.nRequests.Load(), s.nErrors.Load()
	if req >= 50 {
		rate := float64(errs) / float64(req)
		if rate >= 0.1 {
			events = append(events, obs.HealthEvent{
				Round: round, Rule: RuleErrorRate, Level: obs.LevelWarn,
				Message:   fmt.Sprintf("%.0f%% of %d requests errored", 100*rate, req),
				Value:     rate,
				Threshold: 0.1,
			})
		}
	}
	if depth := len(s.ch); depth >= cap(s.ch) {
		events = append(events, obs.HealthEvent{
			Round: round, Rule: RuleQueueFull, Level: obs.LevelWarn,
			Message:   fmt.Sprintf("request queue full (%d)", depth),
			Value:     float64(depth),
			Threshold: float64(cap(s.ch)),
		})
	}
	return events
}

func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// Package spanend exercises the spanend analyzer: obs spans that miss End
// on some path, against the lifecycle patterns the tracing contract allows
// (End on all paths, defer, Fail on failure, escape).
package spanend

import (
	"errors"

	"fedomd/internal/obs"
)

var errBoom = errors.New("boom")

func earlyReturnLeaks(spans obs.Spans, fail bool) error {
	sp := spans.Start(obs.SpanContext{}, "fixture/round")
	if fail {
		return errBoom // want `span sp is not ended on this return path`
	}
	sp.End()
	return nil
}

// errorReturnLeaks fails its span on one error return and forgets it on the
// other: neither End nor Fail reaches the second.
func errorReturnLeaks(spans obs.Spans, parent obs.SpanContext) error {
	sp := spans.Start(parent, "fixture/work")
	if err := work(); err != nil {
		sp.Fail(err)
		return err
	}
	if err := work(); err != nil {
		return err // want `span sp is not ended on this return path`
	}
	sp.End()
	return nil
}

func discardedResult(spans obs.Spans) {
	spans.Start(obs.SpanContext{}, "fixture/work") // want `result of spans.Start is discarded`
}

func restartWhileLive(spans obs.Spans) {
	sp := spans.Start(obs.SpanContext{}, "fixture/a")
	sp = spans.Start(obs.SpanContext{}, "fixture/b") // want `span sp is started again before End`
	sp.End()
}

func scopedLeak(spans obs.Spans, cond bool) {
	if cond {
		sp := spans.Start(obs.SpanContext{}, "fixture/inner")
		sp.SetAttr("k", 1)
	} // want `span sp is not ended before it goes out of scope`
}

func breakLeaks(spans obs.Spans, xs []int) {
	for _, x := range xs {
		sp := spans.Start(obs.SpanContext{}, "fixture/item")
		if x < 0 {
			break // want `span sp is not ended on this break path`
		}
		sp.End()
	}
}

// --- allowed patterns ---

func endOnAllPaths(spans obs.Spans, fail bool) error {
	sp := spans.Start(obs.SpanContext{}, "fixture/work")
	if fail {
		sp.End()
		return errBoom
	}
	sp.End()
	return nil
}

func failOnError(spans obs.Spans, parent obs.SpanContext) error {
	sp := spans.Start(parent, "fixture/work")
	if err := work(); err != nil {
		sp.Fail(err) // a failure is no latency sample
		return err
	}
	sp.End()
	return nil
}

func deferredEnd(spans obs.Spans, parent obs.SpanContext) {
	sp := spans.Start(parent, "fixture/step")
	defer sp.End()
	sp.SetAttr("k", 2)
}

func deferredClosureFailOrEnd(spans obs.Spans) (err error) {
	sp := spans.Start(obs.SpanContext{}, "fixture/run")
	defer func() {
		if err != nil {
			sp.Fail(err)
		}
		sp.End()
	}()
	return work()
}

func escapesByReturn(spans obs.Spans) *obs.Span {
	sp := spans.Start(obs.SpanContext{}, "fixture/handed_off") // the caller owns the End obligation now
	return sp
}

func escapesToCall(spans obs.Spans, park func(*obs.Span)) {
	sp := spans.Start(obs.SpanContext{}, "fixture/parked")
	park(sp)
}

func loopPerIteration(spans obs.Spans, xs []int) {
	for range xs {
		sp := spans.Start(obs.SpanContext{}, "fixture/iter")
		sp.End()
	}
}

// goroutineJobSpan is the async dispatch idiom: the worker goroutine owns its
// span for the whole job and ends it before handing the result to the
// collector channel. The closure body is analyzed as its own function.
func goroutineJobSpan(spans obs.Spans, parent obs.SpanContext, done chan<- error) {
	go func() {
		sp := spans.Start(parent, "fixture/job")
		sp.SetAttr("party", 7)
		err := work()
		if err != nil {
			sp.Fail(err)
		} else {
			sp.End()
		}
		done <- err
	}()
}

// goroutineLeaks shows the same shape failing: an early return inside the
// worker closure abandons the span.
func goroutineLeaks(spans obs.Spans, parent obs.SpanContext, done chan<- error) {
	go func() {
		sp := spans.Start(parent, "fixture/job")
		if err := work(); err != nil {
			done <- err
			return // want `span sp is not ended on this return path`
		}
		sp.End()
		done <- nil
	}()
}

func work() error { return nil }

// batcherLoopSpan is the serving-plane micro-batcher idiom: a long-lived
// goroutine times each coalesced batch with its own span.
func batcherLoopSpan(spans obs.Spans, batches <-chan []int) {
	go func() {
		for b := range batches {
			sp := spans.Start(obs.SpanContext{}, "fixture/batch")
			if len(b) == 0 {
				sp.Fail(errBoom)
				continue
			}
			_ = work()
			sp.End()
		}
	}()
}

// batcherLoopLeaks shows the same shape failing: skipping an empty batch
// abandons its span.
func batcherLoopLeaks(spans obs.Spans, batches <-chan []int) {
	go func() {
		for b := range batches {
			sp := spans.Start(obs.SpanContext{}, "fixture/batch")
			if len(b) == 0 {
				continue // want `span sp is not ended on this continue path`
			}
			_ = work()
			sp.End()
		}
	}()
}

func borrowedParentContext(spans obs.Spans) {
	outer := spans.Start(obs.SpanContext{}, "fixture/outer")
	inner := spans.Start(outer.Context(), "fixture/inner") // receiver use is a borrow, not an escape
	inner.End()
	outer.End()
}

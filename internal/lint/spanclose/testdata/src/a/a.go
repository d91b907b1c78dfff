package a

import "errors"

// Local stand-ins with the trace package's constructor shapes:
// package-level Start/New returning (Ctx, *Span), StartRemote returning a
// third value, and End/EndErr as the closers. Local names matter, not
// import paths: the analyzer matches the constructor name and a (possibly
// pointer) result type named Span.
type Ctx struct{}

type Span struct{}

type Remote struct{}

func Start(c Ctx, name string) (Ctx, *Span)   { return c, &Span{} }
func New(c Ctx, name string) (Ctx, *Span)     { return c, &Span{} }
func StartRemote(c Ctx) (Ctx, *Span, *Remote) { return c, &Span{}, &Remote{} }

func (sp *Span) End()             {}
func (sp *Span) EndErr(err error) {}

// Recorder has a Start method of the same shape: only the package-level
// constructors open spans, so methods are not checked.
type Recorder struct{}

func (r *Recorder) Start(c Ctx, name string) (Ctx, *Span) { return c, &Span{} }

func work() error { return errors.New("boom") }

func finish(c Ctx, sp *Span) {}

type holder struct{ sp *Span }

// Clean: the canonical form survives early returns and panics.
func goodDefer(c Ctx) error {
	_, sp := Start(c, "op")
	defer sp.End()
	return work()
}

// Clean: EndErr on the straight line, nothing can skip it.
func goodMultiEndErr(c Ctx) error {
	c2, sp := Start(c, "op")
	_ = c2
	err := work()
	sp.EndErr(err)
	return err
}

// Clean: New with End via deferred closure.
func goodNewDeferClosure(c Ctx) error {
	_, sp := New(c, "op")
	defer func() {
		sp.EndErr(nil)
	}()
	return work()
}

// Clean: three-result StartRemote, ended before the conditional return.
func goodStartRemote(c Ctx) error {
	_, sp, rem := StartRemote(c)
	_ = rem
	err := work()
	sp.EndErr(err)
	if err != nil {
		return err
	}
	return nil
}

// Clean: span escapes by return — the caller owns it now.
func goodMultiEscape(c Ctx) (Ctx, *Span) {
	c2, sp := Start(c, "op")
	return c2, sp
}

// Clean: returning the call itself transfers responsibility too.
func goodEscapeReturn(c Ctx) (Ctx, *Span) {
	return Start(c, "op")
}

// Clean: handing the span to another function transfers responsibility.
func goodEscapeArg(c Ctx) {
	c2, sp := Start(c, "op")
	finish(c2, sp)
}

// Clean: stored into a field — whoever owns the struct ends it.
func goodEscapeField(c Ctx, h *holder) {
	_, sp := Start(c, "op")
	h.sp = sp
}

// Clean: a method named Start is not a trace constructor.
func goodMethod(c Ctx, r *Recorder) {
	_, _ = r.Start(c, "op")
}

// Bad: Span result bound to blank in a multi-assign.
func badMultiBlank(c Ctx) {
	_, _ = Start(c, "op") // want `spanclose: Span result discarded`
}

// Bad: multi-result span never ended.
func badMultiNeverEnded(c Ctx) {
	_, sp := New(c, "op") // want `spanclose: span is started but never ended`
	_ = sp
}

// Bad: the early return between Start and EndErr skips the close.
func badMultiEarlyReturn(c Ctx) error {
	_, sp := Start(c, "op") // want `spanclose: span may not be ended on every return path`
	if err := work(); err != nil {
		return err
	}
	sp.EndErr(nil)
	return nil
}

// Bad: a remote root that is never ended never ships its fragment.
func badRemoteNeverEnded(c Ctx) {
	_, sp, _ := StartRemote(c) // want `spanclose: span is started but never ended`
	_ = sp
	_ = work()
}

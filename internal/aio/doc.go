// Package aio is a ULT-aware asynchronous I/O reactor: it lets a work
// unit sleep, await a deadline, read, write, or wait on a future by
// parking the *work unit* instead of blocking its executor.
//
// The blocking problem it solves is the one the serving layer exposes:
// the unified API makes create/join/yield cheap on every backend, but a
// handler that calls time.Sleep or a blocking Read occupies its executor
// for the full wait — one slow request caps a whole shard. aio moves the
// wait off the executor: the issuing unit registers an operation, parks
// exactly like a parking join (the unit suspends and hands its executor
// back to the scheduler), and the operation's completer — the reactor's
// timer heap for sleeps, a context callback for deadlines, a completer
// goroutine for reads and writes — completes the operation's
// generation-counted completion word and resumes the unit into its home
// pool through the same ResumeAndRequeue path the join machinery uses.
// Placement is preserved: the park/unpark pair is built by the backend at
// issue time and pushes the resumed unit to the pool it was running
// from.
//
// The package is substrate-agnostic: it knows nothing about executors or
// pools. A backend supplies a Parker — Park suspends the calling unit,
// Unpark (called once, by the completer) resumes it — and everything
// else is stdlib. Backends that cannot foreign-resume a unit degrade to
// PollParker, the documented poll fallback: the unit stays scheduled and
// yields between completion-word checks, trading executor occupancy for
// correctness.
//
// Reads and writes on deadline-capable connections (SetReadDeadline/
// SetWriteDeadline) run on a per-op completer goroutine that attempts
// the I/O in bounded deadline quanta (a deadline a few tens of
// milliseconds out, attempt, loop on timeout; a write resumes from the
// bytes already written): the goroutine blocks in Go's runtime
// netpoller — the process-wide readiness engine every Go program already
// pays for — while the work unit itself stays parked off its executor,
// which is the resource the serving layer actually rations. (A deadline
// already in the past does NOT work as a non-blocking probe: both
// net.Pipe and the internal/poll fd path report deadline exceeded before
// attempting the transfer, so data is never consumed.) Readers and
// writers without deadline support (regular files, bytes.Buffer) are
// offloaded to a one-shot blocking goroutine; the unit still parks.
//
// # Observability
//
// A park is invisible to the executor by design, so the serving layer
// accounts for it explicitly: a request whose handler is parked here
// still counts in the shard's InFlight gauge but is also counted in
// IOParked, and executor occupancy is their difference (see the
// admission-accounting invariant in package serve). That split is why
// graceful drain watches total InFlight rather than queue depth — a
// shard with an empty queue and ten parked sleepers is not drained —
// and why the lwt_serve_ioparked gauge exists on /metrics: queue depth
// alone cannot distinguish a saturated shard from one that is merely
// waiting on I/O. Parks also appear in the flight recorder as
// trace.KindPark intervals on the serve lanes, spanning suspension to
// resume.
package aio

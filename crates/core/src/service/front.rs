//! The service front-end: the submission API ([`Request`], [`super::Ticket`],
//! [`TicketRef`]) and the ingress machinery (fairness scheduler and
//! worker wakeups) behind it.
//!
//! # Submission path
//!
//! ```text
//!  submitter ──Request──▶ admission ──▶ Mutex<DrrQueue> ──▶ Condvar ──┐
//!     │                   (shed/verify/   push by lane +    notify_one │
//!     │                    cache/coalesce) client           or _all    ▼
//!     ▼                                                         workers pop
//!  Ticket ◀─────────────────── response ◀───────────────────── and compile
//! ```
//!
//! There is one ingress: every push — a new submission or a preempted
//! shard's requeue — goes under the scheduler mutex into the weighted
//! deficit-round-robin `DrrQueue`, and wakes as many workers as it
//! pushed copies: `notify_one` for a batched job, `notify_all` for a
//! sharded one. Workers block on the condvar while the queue is empty and
//! the dispatcher is open, so a pushed item is never left unannounced.
//!
//! # Ticket completion-state machine
//!
//! Every submitted request owns a channel with exactly one response in
//! flight; the states a ticket observes:
//!
//! ```text
//!  SUBMITTED ──(cache/disk hit, shed, invalid)──▶ RESOLVED at submission
//!      │
//!      ├──(coalesced onto identical in-flight job)──▶ RESOLVED with leader
//!      │
//!      └──▶ QUEUED ──▶ COMPILING ──▶ RESOLVED by worker
//!                 │            └──(watchdog timeout)──▶ RESOLVED poisoned
//!                 └──(service dropped)──▶ RESOLVED by drain or sweep
//! ```
//!
//! Exactly one sender answers (worker, watchdog, submit path or shutdown
//! sweep — whoever takes the job's sender first), so a response is
//! observed *at most once*: [`Ticket::wait`] consumes the ticket, and the
//! non-consuming [`TicketRef::poll`] / [`TicketRef::wait_timeout`] return
//! the response the first time it is ready, after which the ticket is
//! spent (a later `wait` reports the service-shutdown error). Dropping a
//! ticket abandons the response; the service never blocks on it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, TryRecvError};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

use super::fairness::{ClientId, DrrQueue};
use super::{lock, Priority, ServiceBackend, ServiceResponse};
use crate::error::Error;
use crate::timing::RequestTiming;

/// A compile request under construction: the backend payload plus the
/// front-end's scheduling attributes. Build with [`Request::new`] and the
/// chainable setters, then hand to
/// [`super::CompileService::submit`]/[`super::CompileService::compile`]:
///
/// ```ignore
/// svc.submit(Request::new(module).priority(Priority::Bulk)
///     .deadline(Duration::from_millis(25))
///     .client(ClientId(7)));
/// ```
#[derive(Debug)]
pub struct Request<B: ServiceBackend> {
    pub(crate) payload: B::Request,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Duration>,
    pub(crate) client: ClientId,
    pub(crate) weight: u32,
}

impl<B: ServiceBackend> Request<B> {
    /// A request with the default attributes: [`Priority::Interactive`],
    /// no deadline, [`ClientId::ANON`], weight 1.
    pub fn new(payload: B::Request) -> Request<B> {
        Request {
            payload,
            priority: Priority::default(),
            deadline: None,
            client: ClientId::ANON,
            weight: 1,
        }
    }

    /// Sets the scheduling class.
    pub fn priority(mut self, priority: Priority) -> Request<B> {
        self.priority = priority;
        self
    }

    /// Sets the time budget, measured from submission. An expired request
    /// is answered with [`Error::DeadlineExceeded`] at dequeue (before the
    /// compile starts) or at the next shard function boundary; a compile
    /// already running on one worker is not interrupted. When an identical
    /// in-flight request coalesces with this one, the *loosest* deadline
    /// of the group wins — attaching a waiter never tightens the leader's
    /// budget.
    pub fn deadline(mut self, deadline: Duration) -> Request<B> {
        self.deadline = Some(deadline);
        self
    }

    /// Attributes the request to a client for fairness accounting.
    pub fn client(mut self, client: ClientId) -> Request<B> {
        self.client = client;
        self
    }

    /// Sets the client's deficit-round-robin weight (clamped to at least
    /// 1): a weight-2 client drains twice as fast per rotation as a
    /// weight-1 client in the same lane.
    pub fn weight(mut self, weight: u32) -> Request<B> {
        self.weight = weight.max(1);
        self
    }
}

/// A borrowed, non-consuming view of a [`Ticket`] for poll loops; see the
/// module docs for the completion-state machine.
#[derive(Debug)]
pub struct TicketRef<'a> {
    pub(crate) rx: &'a Receiver<ServiceResponse>,
}

impl TicketRef<'_> {
    /// Returns the response if it is ready, without blocking. `None`
    /// means still in flight — poll again or block via
    /// [`TicketRef::wait_timeout`].
    pub fn poll(&self) -> Option<ServiceResponse> {
        match self.rx.try_recv() {
            Ok(r) => Some(r),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(shutdown_response()),
        }
    }

    /// Blocks until the response is ready or `timeout` elapses. Returns
    /// `None` on timeout; the ticket stays valid, so the caller can
    /// retry, do other work, or drop it.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<ServiceResponse> {
        match self.rx.recv_timeout(timeout) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => Some(shutdown_response()),
        }
    }
}

pub(crate) fn shutdown_response() -> ServiceResponse {
    ServiceResponse {
        module: Err(Error::Emit(
            "compile service shut down before answering".into(),
        )),
        timing: RequestTiming::default(),
    }
}

/// One enqueued unit: the item plus the scheduling attributes the DRR
/// scheduler needs.
pub(crate) struct Submission<T> {
    pub item: T,
    pub class: Priority,
    pub client: ClientId,
    pub weight: u32,
}

/// The ingress between submitters and workers: the DRR fairness
/// scheduler under one mutex, and a condvar the idle workers wait on.
pub(crate) struct Dispatcher<T> {
    sched: Mutex<DrrQueue<T>>,
    cv: Condvar,
    closed: AtomicBool,
}

impl<T: Clone> Dispatcher<T> {
    pub(crate) fn new() -> Dispatcher<T> {
        Dispatcher {
            sched: Mutex::new(DrrQueue::new()),
            cv: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Pushes `copies` copies of `sub` (1 for a batched job, one per
    /// worker for a sharded one — from submit or from a preempted shard's
    /// requeue) and wakes as many workers: `notify_one` for one copy,
    /// `notify_all` for more.
    pub(crate) fn push(&self, sub: Submission<T>, copies: usize) {
        {
            let mut sched = lock(&self.sched);
            for _ in 0..copies {
                sched.push(sub.class, sub.client, sub.weight, sub.item.clone());
            }
        }
        if copies <= 1 {
            self.cv.notify_one();
        } else {
            self.cv.notify_all();
        }
    }

    /// Closes the front-end (shutdown): no effect on already-enqueued
    /// work, but workers exit once the scheduler is drained.
    pub(crate) fn close(&self) {
        // Set the flag under the scheduler mutex so a worker between its
        // closed check and its condvar wait cannot miss the notification.
        {
            let _sched = lock(&self.sched);
            self.closed.store(true, Ordering::Release);
        }
        self.cv.notify_all();
    }

    /// Blocks until a job is available, returning `None` only when the
    /// dispatcher is closed *and* the scheduler is empty.
    pub(crate) fn next(&self) -> Option<T> {
        let mut sched = lock(&self.sched);
        loop {
            if let Some(item) = sched.pop() {
                return Some(item);
            }
            if self.is_closed() {
                return None;
            }
            sched = self.cv.wait(sched).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Post-join drain for `Drop`: empties the scheduler, returning the
    /// leftovers so the service can answer their tickets. Only sound once
    /// the workers have exited — they would otherwise race for the items.
    pub(crate) fn drain_remaining(&self) -> Vec<T> {
        let mut sched = lock(&self.sched);
        std::iter::from_fn(|| sched.pop()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn sub(item: u32, class: Priority) -> Submission<u32> {
        Submission {
            item,
            class,
            client: ClientId(1),
            weight: 1,
        }
    }

    #[test]
    fn dispatcher_delivers_same_client_submissions_in_fifo_order() {
        let d: Dispatcher<u32> = Dispatcher::new();
        for v in 0..5 {
            d.push(sub(v, Priority::Interactive), 1);
        }
        let got: Vec<u32> = (0..5).map(|_| d.next().unwrap()).collect();
        assert_eq!(got, (0..5).collect::<Vec<_>>(), "same-client FIFO");
        d.close();
        assert_eq!(d.next(), None);
    }

    #[test]
    fn dispatcher_delivers_and_closes() {
        let d: Dispatcher<u32> = Dispatcher::new();
        d.push(sub(9, Priority::Interactive), 1);
        assert_eq!(d.next(), Some(9));
        d.close();
        assert_eq!(d.next(), None);
        assert_eq!(d.next(), None);
    }

    #[test]
    fn push_wakes_one_blocked_worker_per_copy() {
        // Two workers block in `next()` on an empty queue and take one
        // item each. A push of one copy per worker (the shape of a
        // preempted shard's requeue) must wake both: with a single
        // wakeup, one copy would sit in the queue while a worker sleeps.
        let d: Arc<Dispatcher<u32>> = Arc::new(Dispatcher::new());
        let (tx, rx) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let (d, tx) = (Arc::clone(&d), tx.clone());
                std::thread::spawn(move || tx.send(d.next()).unwrap())
            })
            .collect();
        // Let both workers reach the condvar wait before pushing.
        std::thread::sleep(Duration::from_millis(50));
        d.push(sub(7, Priority::Bulk), 2);
        for _ in 0..2 {
            let got = rx.recv_timeout(Duration::from_secs(10));
            assert_eq!(got, Ok(Some(7)), "a pushed copy stranded in the queue");
        }
        d.close();
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn drain_remaining_returns_unconsumed_items() {
        let d: Dispatcher<u32> = Dispatcher::new();
        d.push(sub(1, Priority::Bulk), 1);
        d.push(sub(2, Priority::Interactive), 2);
        d.close();
        let mut left = d.drain_remaining();
        left.sort_unstable();
        assert_eq!(left, vec![1, 2, 2]);
        assert_eq!(d.next(), None);
    }
}

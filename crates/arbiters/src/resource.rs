//! A shared resource guarded by an arbiter.

use vpc_sim::trace::{self, EventData, ResourceId, TraceEvent};
use vpc_sim::{Cycle, Share, ThreadId, UtilizationMeter, MAX_THREADS};

use crate::arbiter::Arbiter;
use crate::request::ArbRequest;

/// A non-preemptible, busy-until resource (tag array, data array, or data
/// bus) together with its arbiter and utilization meter — one of the
/// arbiter-plus-resource blocks of the paper's Figure 2b.
///
/// The owner enqueues requests as they become eligible and calls
/// [`ArbitratedResource::try_grant`] each (resource) cycle; at most one
/// request is granted per free period and the resource stays busy for the
/// request's service time.
///
/// ```
/// use vpc_arbiters::{ArbitratedResource, ArbRequest, FcfsArbiter};
/// use vpc_sim::{AccessKind, ThreadId};
///
/// let mut tag = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
/// tag.enqueue(ArbRequest::new(1, ThreadId(0), AccessKind::Read, 4), 0);
/// let granted = tag.try_grant(0).unwrap();
/// assert_eq!(granted.id, 1);
/// assert!(tag.try_grant(2).is_none());  // still busy until cycle 4
/// assert!(!tag.is_busy(4));
/// ```
#[derive(Debug)]
pub struct ArbitratedResource {
    arbiter: Box<dyn Arbiter>,
    /// Requests in `arbiter`: raised by [`ArbitratedResource::enqueue`],
    /// lowered by a grant. While it is zero, [`ArbitratedResource::try_grant`]
    /// returns before the dynamic `select` call.
    queued: usize,
    busy_until: Cycle,
    meter: UtilizationMeter,
    per_thread_busy: [u64; MAX_THREADS],
    grants: u64,
    trace_id: Option<ResourceId>,
    /// Reused by the per-grant backlog trace report so steady-state grants
    /// allocate nothing.
    backlog_scratch: Vec<(ThreadId, Option<u64>)>,
}

impl ArbitratedResource {
    /// Wraps `arbiter` around an initially idle resource.
    pub fn new(arbiter: Box<dyn Arbiter>) -> ArbitratedResource {
        ArbitratedResource {
            arbiter,
            queued: 0,
            busy_until: 0,
            meter: UtilizationMeter::default(),
            per_thread_busy: [0; MAX_THREADS],
            grants: 0,
            trace_id: None,
            backlog_scratch: Vec::new(),
        }
    }

    /// Names this resource for [`vpc_sim::trace`] observability: with an id
    /// set and a recorder installed, every grant emits a
    /// [`EventData::Grant`] (with the arbiter's virtual start/finish times)
    /// plus one [`EventData::Defer`] per thread left backlogged. Pure
    /// instrumentation — arbitration behavior is unchanged.
    pub fn set_trace_id(&mut self, id: ResourceId) {
        self.trace_id = Some(id);
    }

    /// Enters `req` into arbitration at `now`.
    pub fn enqueue(&mut self, req: ArbRequest, now: Cycle) {
        self.arbiter.enqueue(req, now);
        self.queued += 1;
    }

    /// Whether the resource is servicing a request at `now`.
    pub fn is_busy(&self, now: Cycle) -> bool {
        now < self.busy_until
    }

    /// If the resource is free at `now` and a request is pending, grants it:
    /// the resource becomes busy for the request's service time and the
    /// granted request is returned so the owner can advance its state
    /// machine.
    pub fn try_grant(&mut self, now: Cycle) -> Option<ArbRequest> {
        if self.queued == 0 || self.is_busy(now) {
            return None;
        }
        let req = self.arbiter.select(now)?;
        self.queued -= 1;
        self.busy_until = now + req.service_time;
        self.meter.add_busy(req.service_time);
        self.per_thread_busy[req.thread.index()] += req.service_time;
        self.grants += 1;
        if let Some(resource) = self.trace_id {
            if trace::is_enabled() {
                let virt = self.arbiter.last_grant_virtual();
                trace::emit(|| TraceEvent {
                    at: now,
                    data: EventData::Grant {
                        resource,
                        thread: req.thread,
                        kind: req.kind,
                        service: req.service_time,
                        virtual_start: virt.map(|(s, _)| s),
                        virtual_finish: virt.map(|(_, f)| f),
                    },
                });
                self.backlog_scratch.clear();
                self.arbiter.backlogged_threads(&mut self.backlog_scratch);
                for &(thread, virtual_start) in &self.backlog_scratch {
                    trace::emit(|| TraceEvent {
                        at: now,
                        data: EventData::Defer { resource, thread, virtual_start },
                    });
                }
            }
        }
        Some(req)
    }

    /// The cycle the current service completes (or the past, if idle).
    pub fn busy_until(&self) -> Cycle {
        self.busy_until
    }

    /// Number of requests pending in arbitration.
    pub fn pending(&self) -> usize {
        self.queued
    }

    /// Total requests granted.
    pub fn grants(&self) -> u64 {
        self.grants
    }

    /// Busy-cycle meter for utilization reporting.
    pub fn meter(&self) -> UtilizationMeter {
        self.meter
    }

    /// Busy cycles attributable to `thread`'s requests — the per-thread
    /// utilization breakdown the paper's sharing figures plot.
    pub fn thread_busy_cycles(&self, thread: ThreadId) -> u64 {
        self.per_thread_busy[thread.index()]
    }

    /// Reconfigures `thread`'s share in the underlying arbiter (the VPC
    /// control registers). Returns `false` if the arbiter has no shares.
    pub fn reconfigure_share(&mut self, thread: ThreadId, share: Share) -> bool {
        self.arbiter.reconfigure_share(thread, share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arbiter::FcfsArbiter;
    use vpc_sim::{AccessKind, ThreadId};

    fn req(id: u64, service: u64) -> ArbRequest {
        ArbRequest::new(id, ThreadId(0), AccessKind::Read, service)
    }

    #[test]
    fn grants_respect_busy_time() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(req(1, 8), 0);
        res.enqueue(req(2, 8), 0);
        assert_eq!(res.try_grant(0).unwrap().id, 1);
        assert!(res.try_grant(4).is_none(), "busy until 8");
        assert_eq!(res.try_grant(8).unwrap().id, 2);
        assert_eq!(res.grants(), 2);
    }

    #[test]
    fn utilization_accumulates_service_time() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(req(1, 8), 0);
        res.enqueue(req(2, 16), 0);
        res.try_grant(0);
        res.try_grant(8);
        assert_eq!(res.meter().busy_cycles(), 24);
        assert!((res.meter().utilization(48) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_thread_busy_attribution() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(ArbRequest::new(1, ThreadId(0), AccessKind::Read, 8), 0);
        res.enqueue(ArbRequest::new(2, ThreadId(1), AccessKind::Write, 16), 0);
        res.try_grant(0);
        res.try_grant(8);
        assert_eq!(res.thread_busy_cycles(ThreadId(0)), 8);
        assert_eq!(res.thread_busy_cycles(ThreadId(1)), 16);
        assert_eq!(res.meter().busy_cycles(), 24);
    }

    #[test]
    fn drained_resource_grants_again_once_refilled() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        res.enqueue(req(1, 4), 0);
        assert_eq!(res.try_grant(0).unwrap().id, 1);
        assert!(res.try_grant(4).is_none(), "drained");
        assert_eq!(res.pending(), 0);
        res.enqueue(req(2, 4), 6);
        assert_eq!(res.pending(), 1);
        assert_eq!(res.try_grant(6).unwrap().id, 2, "refilled resource grants");
        assert_eq!(res.pending(), 0);
    }

    #[test]
    fn idle_resource_grants_nothing() {
        let mut res = ArbitratedResource::new(Box::new(FcfsArbiter::new()));
        assert!(res.try_grant(0).is_none());
        assert_eq!(res.pending(), 0);
        assert!(!res.is_busy(0));
    }
}

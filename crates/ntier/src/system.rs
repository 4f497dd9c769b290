//! The n-tier system simulator: a single [`Actor`] holding every server,
//! client, and transient-event model.
//!
//! Mechanics reproduced from the paper's testbed:
//!
//! * Multi-core **processor-sharing** servers with finite worker-thread
//!   pools; a thread is held for the whole visit, including while blocked on
//!   synchronous downstream calls — the push-back path that propagates
//!   transient congestion upstream.
//! * **Admission**: the web tier has a finite listen backlog; when threads
//!   and backlog are full, the connection is refused and the client
//!   retransmits after 3 s (footnote 1 of the paper — the source of the >3 s
//!   hump in the bi-modal response-time distribution of Fig 2c).
//! * **JVM GC** freezes (app tier) and the **SpeedStep governor** (db tier)
//!   from [`crate::gc`] / [`crate::dvfs`].
//! * A **passive tap** records every interaction message with microsecond
//!   timestamps into a [`TraceLog`]; requests are stamped on arrival at the
//!   destination, responses on departure from the source, so span residence
//!   equals true server residence.
//!
//! A run hands each capture record and each completed transaction to its
//! consumers as it happens ([`NTierSystem::run_with_taps`]); without a
//! record consumer the records go into [`RunResult::log`], and the run
//! folds the measured transactions into [`RunResult::txns`].

use std::collections::VecDeque;

use fgbd_des::{
    Actor, Dice, JobId, LogNormal, PsIntegrator, Scheduler, SimDuration, SimTime, Simulation,
};
use fgbd_trace::{
    ClassId, ConnId, MsgKind, MsgRecord, NodeId, NodeKind, NodeMeta, TraceLog, TxnId,
};

use crate::arena::Slab;
use crate::class::RequestClass;
use crate::config::SystemConfig;
use crate::dvfs::{DvfsState, PStateSample};
use crate::gc::{GcEvent, GcState};
use crate::result::{CpuSample, RunResult, ServerInfo, TxnSample, TxnSummary};
use crate::users::UserTable;

/// Who is waiting for a visit's response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parent {
    /// An emulated user (the visit is a transaction root).
    User(u32),
    /// A visit on an upstream server, blocked on this call.
    Visit {
        /// Upstream server index.
        server: u32,
        /// Upstream visit id.
        visit: u64,
    },
}

/// The payload of a request message in flight.
#[derive(Debug, Clone, Copy)]
pub struct NewRequest {
    txn: u64,
    class: u16,
    parent: Parent,
    conn: u32,
}

/// One step of a visit's lifecycle at a server.
#[derive(Debug, Clone, Copy)]
enum Segment {
    /// CPU work, in megacycles.
    Cpu(f64),
    /// Non-CPU wait (I/O, row fetch): the thread is held but no core is
    /// used.
    Wait(SimDuration),
    /// A synchronous call to the next tier.
    Call,
}

/// A visit's plan: `len` segments, CPU slices of `cpu` megacycles at the
/// even positions and, at the odd ones between them, a synchronous call to
/// the next tier — or, when `wait_us` is non-zero, a non-CPU wait of that
/// many microseconds. Every role's plan has this shape (see
/// `NTierSystem::sample_plan`): a web or middleware visit is a call between
/// two halves of its demand, an app visit `q` calls between `q + 1` equal
/// slices, a database visit one slice or a wait between two halves. So
/// three words describe any plan, with no segment list: `Visit` values
/// move through the slab on every arrival and completion, which makes
/// their size hot-loop memory traffic.
#[derive(Debug, Clone, Copy)]
struct Plan {
    cpu: f64,
    wait_us: u64,
    len: u32,
}

impl Plan {
    /// A plan of `len` segments whose CPU slices are `cpu` megacycles and
    /// whose odd segments are calls.
    fn calls(cpu: f64, len: u32) -> Plan {
        Plan {
            cpu,
            wait_us: 0,
            len,
        }
    }

    fn get(&self, i: u32) -> Segment {
        assert!(i < self.len, "segment index {i} out of bounds");
        if i.is_multiple_of(2) {
            Segment::Cpu(self.cpu)
        } else if self.wait_us == 0 {
            Segment::Call
        } else {
            Segment::Wait(SimDuration::from_micros(self.wait_us))
        }
    }

    #[cfg(test)]
    fn iter(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.len).map(|i| self.get(i))
    }
}

#[derive(Debug)]
struct Visit {
    txn: u64,
    parent: Parent,
    plan: Plan,
    conn: u32,
    /// Index of the current segment in `plan`.
    seg: u32,
    class: u16,
}

/// Tier roles used to pick demands from a [`RequestClass`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Web,
    App,
    Middleware,
    Db,
}

/// Roles per class in the demand cache (one entry per [`Role`]).
const ROLES: usize = 4;

impl Role {
    /// Every role, in discriminant order (the demand cache's layout).
    const ALL: [Role; ROLES] = [Role::Web, Role::App, Role::Middleware, Role::Db];
}

fn role_of(tier: usize, tiers: usize) -> Role {
    if tier + 1 == tiers {
        Role::Db
    } else if tier == 0 {
        Role::Web
    } else if tier == 1 {
        Role::App
    } else {
        Role::Middleware
    }
}

/// The demand distributions of one (class, role) pair: a visit's CPU
/// demand in megacycles and, for the database role, its non-CPU wait in
/// seconds (`None` when the class has none).
#[derive(Debug, Clone, Copy)]
struct Demand {
    cpu: LogNormal,
    wait: Option<LogNormal>,
}

impl Demand {
    /// The distributions with every mean scaled by `drift` (1.0 without
    /// demand drift, which is bit-identical to no scaling).
    fn new(class: &RequestClass, role: Role, drift: f64) -> Demand {
        let dist = |mean: f64| LogNormal::from_mean_cv((mean * drift).max(1e-6), class.demand_cv);
        let mc = match role {
            Role::Web => class.web_demand_mc,
            Role::App => class.app_demand_mc,
            Role::Middleware => class.mw_demand_mc,
            Role::Db => class.db_demand_mc,
        };
        Demand {
            cpu: dist(mc),
            wait: (role == Role::Db && class.db_wait_s > 0.0).then(|| dist(class.db_wait_s)),
        }
    }
}

#[derive(Debug, Default)]
struct ConnPool {
    base: u32,
    free: Vec<u32>,
    next: u32,
}

impl ConnPool {
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let c = self.base + self.next;
            self.next += 1;
            c
        })
    }

    fn release(&mut self, conn: u32) {
        debug_assert!(conn >= self.base && conn < self.base + self.next);
        self.free.push(conn);
    }
}

struct Server {
    name: String,
    tier: usize,
    role: Role,
    node: NodeId,
    cores: u32,
    base_mhz: f64,
    monitor_overhead: f64,
    max_threads: usize,
    backlog: usize,
    ps: PsIntegrator,
    threads_busy: usize,
    pending: VecDeque<u64>,
    visits: Slab<Visit>,
    cpu_gen: u64,
    /// Absolute due time of the armed `CpuDone` event, if one is live.
    cpu_evt: SimTime,
    /// FIFO ticket of the armed `CpuDone` event, re-stamped on every reuse
    /// so same-microsecond ordering matches an always-reschedule run.
    cpu_seq: u64,
    /// `true` while a `CpuDone` carrying the current `cpu_gen` sits in the
    /// event queue — the completion token that lets `reschedule_cpu` skip
    /// the bump-and-reschedule when the predicted time is unchanged.
    cpu_sched_live: bool,
    /// `CpuDone` events that still went stale (the predicted completion
    /// time moved, invalidating the armed event). Flushed to
    /// `des.cpu_done_stale`.
    cpu_stale: u64,
    /// Reschedules avoided because the armed `CpuDone` was already due at
    /// the recomputed time. Flushed to `des.cpu_done_reuse`.
    cpu_reuse: u64,
    gc: Option<GcState>,
    gc_stw_end: SimTime,
    /// Completed GC CPU burn, core-seconds.
    gc_busy_full: f64,
    /// In-progress GC phase: (start, cpu fraction).
    gc_active: Option<(SimTime, f64)>,
    dvfs: Option<DvfsState>,
    rr: usize,
    rx_bytes: u64,
    tx_bytes: u64,
    completed: u64,
    dice: Dice,
}

impl Server {
    fn effective_mhz(&self) -> f64 {
        let clock = self.dvfs.as_ref().map_or(self.base_mhz, DvfsState::mhz);
        let gc_tax = match (&self.gc, self.gc_active) {
            (Some(gc), Some((_, frac))) if frac < 1.0 => gc.config.concurrent_tax,
            _ => 0.0,
        };
        // A sampling daemon steals a fixed fraction of one core.
        let monitor_tax = self.monitor_overhead / f64::from(self.cores);
        clock * (1.0 - gc_tax) * (1.0 - monitor_tax)
    }

    /// Cumulative busy core-seconds (request progress + GC burn) as of
    /// `now`.
    fn busy_core_seconds(&mut self, now: SimTime) -> f64 {
        let mut busy = self.ps.busy_core_seconds(now) + self.gc_busy_full;
        if let Some((start, frac)) = self.gc_active {
            busy += f64::from(self.cores) * frac * now.saturating_since(start).as_secs_f64();
        }
        busy
    }

    fn has_thread_capacity(&self) -> bool {
        self.threads_busy < self.max_threads
    }
}

/// Events of the n-tier system.
#[derive(Debug, Clone, Copy)]
pub enum Ev {
    /// Kick-off: schedules initial thinks, governor ticks and samplers.
    Boot,
    /// A user's think timer expired (subject to burst thinning).
    Think(u32),
    /// A refused connection's retransmission timer expired.
    Retry(u32),
    /// A request message reached a server.
    Arrive {
        /// Destination server index.
        server: u32,
        /// Message payload.
        req: NewRequest,
    },
    /// A response message reached the upstream visit waiting on it.
    RespArrive {
        /// Upstream server index.
        server: u32,
        /// Upstream visit id.
        visit: u64,
        /// Connection-pool index of the link the call used.
        link: u32,
        /// Connection to return to that pool.
        conn: u32,
    },
    /// A response reached the client.
    ClientResp(u32),
    /// Processor-sharing completion check (stale unless `gen` matches).
    CpuDone {
        /// Server index.
        server: u32,
        /// Generation stamp.
        gen: u64,
    },
    /// A non-CPU wait segment finished.
    WaitDone {
        /// Server index.
        server: u32,
        /// Visit id.
        visit: u64,
    },
    /// End of a stop-the-world GC pause.
    GcPauseEnd(u32),
    /// End of a concurrent GC background cycle.
    GcCycleEnd(u32),
    /// DVFS governor control-period tick.
    GovTick(u32),
    /// CPU-busy sampler tick.
    CpuSample,
    /// Burst-modulator state flip.
    BurstToggle,
}

// Server indices are `u32` in events so an event is five words: every
// pending event is moved through the queue's buckets at least once.
const _: () = assert!(std::mem::size_of::<Ev>() <= 40, "Ev grew past five words");

/// The complete simulated system.
pub struct NTierSystem<'t> {
    cfg: SystemConfig,
    servers: Vec<Server>,
    tiers: Vec<Vec<usize>>,
    users: UserTable,
    conn_pools: Vec<ConnPool>,
    /// Dense `src * n_servers + dst → conn-pool index` lookup (`LINK_NONE`
    /// for non-adjacent pairs). Server counts are single digits, so the
    /// flat table is tiny and the hot-path lookup is one multiply-add.
    links: Vec<u32>,
    burst_factor: f64,
    next_txn: u64,
    log: TraceLog,
    /// When set, capture records go to this callback instead of
    /// accumulating in `log` (see [`NTierSystem::run_with_taps`]) — the
    /// hook the chunked capture writer uses to spill records to disk
    /// without materializing a log; the returned [`RunResult::log`] then
    /// stays empty.
    record_tap: Option<&'t mut dyn FnMut(MsgRecord)>,
    /// When set, every completed transaction goes to this callback.
    txn_tap: Option<&'t mut dyn FnMut(TxnSample)>,
    txns: TxnSummary,
    gc_events: Vec<GcEvent>,
    pstate_log: Vec<PStateSample>,
    cpu_busy: Vec<Vec<CpuSample>>,
    retransmissions: u64,
    workload_dice: Dice,
    burst_dice: Dice,
    class_weights: Vec<f64>,
    /// Reusable completion-batch buffer for the `CpuDone` handler, so the
    /// steady-state event loop never allocates per event.
    cpu_done: Vec<JobId>,
    /// Demand distributions by `class * ROLES + role`, worked out once when
    /// demands do not drift (empty otherwise: drifting demands move with
    /// simulated time, so each draw works its distribution out afresh).
    demands: Vec<Demand>,
}

const CLIENT_NODE: NodeId = NodeId(0);
const POOL_CONN_BASE: u32 = 1 << 20;
/// `links` entry for a (src, dst) pair with no connection pool.
const LINK_NONE: u32 = u32::MAX;

/// The node table a run with this configuration will record: the client
/// farm at node 0 followed by every server in topology order. Exposed so
/// streaming capture writers — which must emit the node table before the
/// first record arrives — can build it without constructing the system.
pub fn node_metas(cfg: &SystemConfig) -> Vec<NodeMeta> {
    let mut nodes = vec![NodeMeta {
        id: CLIENT_NODE,
        name: "clients".to_string(),
        kind: NodeKind::Client,
        tier: None,
    }];
    for spec in cfg.topology.iter().flatten() {
        nodes.push(NodeMeta {
            id: NodeId(nodes.len() as u16),
            name: spec.name.clone(),
            kind: NodeKind::Server,
            tier: Some(spec.tier as u8),
        });
    }
    nodes
}

impl<'t> NTierSystem<'t> {
    /// Builds the system from a validated configuration.
    pub fn new(cfg: SystemConfig) -> NTierSystem<'t> {
        cfg.validate();
        let mut root = Dice::seed(cfg.seed);
        let workload_dice = root.fork(1);
        let burst_dice = root.fork(2);

        let n_classes = cfg.mix.classes().len();
        let mut servers = Vec::new();
        let mut tiers = Vec::new();
        let nodes = node_metas(&cfg);
        for tier_specs in &cfg.topology {
            let mut tier_idx = Vec::new();
            for spec in tier_specs {
                let idx = servers.len();
                let node = NodeId((idx + 1) as u16);
                debug_assert_eq!(nodes[idx + 1].id, node);
                servers.push(Server {
                    name: spec.name.clone(),
                    tier: spec.tier,
                    role: role_of(spec.tier, cfg.topology.len()),
                    node,
                    cores: spec.cores,
                    base_mhz: spec.base_mhz,
                    monitor_overhead: spec.monitor_overhead,
                    max_threads: spec.max_threads,
                    backlog: spec.backlog,
                    // One PS lane per request class: same-class demands are
                    // near-deterministic, so class lanes maximize the
                    // monotone-append hit rate (see `fgbd_des::ps`).
                    ps: PsIntegrator::with_lanes(
                        spec.dvfs.map_or(spec.base_mhz, |d| {
                            crate::dvfs::XEON_PSTATES[d.start_index].mhz
                        }) * (1.0 - spec.monitor_overhead / f64::from(spec.cores)),
                        spec.cores,
                        n_classes,
                    ),
                    threads_busy: 0,
                    pending: VecDeque::with_capacity(spec.backlog + 1),
                    // Live visits are bounded by in-service threads plus the
                    // accept queue; pre-sizing to that bound means the slab
                    // never grows mid-run.
                    visits: Slab::with_capacity(spec.max_threads + spec.backlog + 1),
                    cpu_gen: 0,
                    cpu_evt: SimTime::ZERO,
                    cpu_seq: 0,
                    cpu_sched_live: false,
                    cpu_stale: 0,
                    cpu_reuse: 0,
                    gc: spec.gc.map(GcState::new),
                    gc_stw_end: SimTime::ZERO,
                    gc_busy_full: 0.0,
                    gc_active: None,
                    dvfs: spec.dvfs.map(DvfsState::new),
                    rr: 0,
                    rx_bytes: 0,
                    tx_bytes: 0,
                    completed: 0,
                    dice: root.fork(100 + idx as u64),
                });
                tier_idx.push(idx);
            }
            tiers.push(tier_idx);
        }

        // Connection pools for every directed (server, next-tier server)
        // pair.
        let mut conn_pools = Vec::new();
        let mut links = vec![LINK_NONE; servers.len() * servers.len()];
        for t in 0..tiers.len().saturating_sub(1) {
            for &s in &tiers[t] {
                for &d in &tiers[t + 1] {
                    let li = conn_pools.len();
                    links[s * servers.len() + d] = li as u32;
                    conn_pools.push(ConnPool {
                        base: POOL_CONN_BASE * (li as u32 + 1),
                        free: Vec::with_capacity(16),
                        next: 0,
                    });
                }
            }
        }

        let class_weights = cfg.mix.weights();
        let demands = if cfg.demand_drift_per_hour == 0.0 {
            cfg.mix
                .classes()
                .iter()
                .flat_map(|class| Role::ALL.map(|role| Demand::new(class, role, 1.0)))
                .collect()
        } else {
            Vec::new()
        };
        let n_servers = servers.len();
        NTierSystem {
            servers,
            tiers,
            users: UserTable::new(cfg.users as usize),
            conn_pools,
            links,
            burst_factor: 1.0,
            next_txn: 0,
            log: TraceLog::new(nodes),
            record_tap: None,
            txn_tap: None,
            txns: TxnSummary::default(),
            gc_events: Vec::new(),
            pstate_log: Vec::new(),
            cpu_busy: vec![Vec::new(); n_servers],
            retransmissions: 0,
            workload_dice,
            burst_dice,
            class_weights,
            cpu_done: Vec::new(),
            demands,
            cfg,
        }
    }

    /// Runs the configured scenario to completion and returns its outputs.
    pub fn run(cfg: SystemConfig) -> RunResult {
        NTierSystem::run_with_taps(cfg, None, None)
    }

    /// Like [`NTierSystem::run`], but every capture record is handed to
    /// `tap` instead of being materialized in [`RunResult::log`] (which
    /// comes back empty) — the hook for e.g. the chunked capture writer
    /// spilling a million-user run to disk in flat memory.
    pub fn run_with_record_tap(cfg: SystemConfig, mut tap: impl FnMut(MsgRecord)) -> RunResult {
        NTierSystem::run_with_taps(cfg, Some(&mut tap), None)
    }

    /// Runs `cfg` with both consumers: each capture record goes to
    /// `records` instead of [`RunResult::log`] (kept there when `None`),
    /// and each completed transaction, warm-up included, to `txns`. Both
    /// run inline on the simulation thread, in strict completion order.
    pub fn run_with_taps(
        cfg: SystemConfig,
        records: Option<&mut dyn FnMut(MsgRecord)>,
        txns: Option<&mut dyn FnMut(TxnSample)>,
    ) -> RunResult {
        let horizon = cfg.measured().end;
        let mut system = NTierSystem::new(cfg);
        system.record_tap = records.map(|tap| tap as &mut dyn FnMut(MsgRecord));
        system.txn_tap = txns.map(|tap| tap as &mut dyn FnMut(TxnSample));
        let mut sim = Simulation::new(system);
        sim.prime(SimTime::ZERO, Ev::Boot);
        sim.run_until(horizon);
        sim.into_actor().into_result(horizon)
    }

    /// Finalizes the run outputs.
    pub fn into_result(self, horizon: SimTime) -> RunResult {
        // Completion-token accounting, accumulated in plain per-server
        // fields (the event loop is too hot for per-op atomics) and flushed
        // here. Retained: zero avoided churn would itself be a finding.
        // Guarded like every retained flush — with the kill switch off even
        // registration must not leave a trace in snapshot deltas.
        if fgbd_obsv::enabled() {
            let stale: u64 = self.servers.iter().map(|s| s.cpu_stale).sum();
            let reuse: u64 = self.servers.iter().map(|s| s.cpu_reuse).sum();
            let visits: u64 = self.servers.iter().map(|s| s.completed).sum();
            fgbd_obsv::metrics::counter_retained("des.cpu_done_stale").add(stale);
            fgbd_obsv::metrics::counter_retained("des.cpu_done_reuse").add(reuse);
            // Completed request visits: `des.events` over this is the
            // simulator's event budget per visit.
            fgbd_obsv::metrics::counter_retained("des.visits").add(visits);
        }
        RunResult {
            servers: self
                .servers
                .iter()
                .map(|s| ServerInfo {
                    name: s.name.clone(),
                    tier: s.tier,
                    node: s.node,
                    cores: s.cores,
                    max_threads: s.max_threads,
                })
                .collect(),
            log: self.log,
            txns: self.txns,
            gc_events: self.gc_events,
            pstate_log: self.pstate_log,
            cpu_busy: self.cpu_busy,
            net_bytes: self
                .servers
                .iter()
                .map(|s| (s.rx_bytes, s.tx_bytes))
                .collect(),
            completed_visits: self.servers.iter().map(|s| s.completed).collect(),
            retransmissions: self.retransmissions,
            warmup_end: SimTime::ZERO + self.cfg.warmup,
            horizon,
        }
    }

    fn think_delay(&mut self) -> SimDuration {
        let mean = self.cfg.think_time.as_secs_f64();
        let env = if self.cfg.burst.enabled {
            mean / self.cfg.burst.factor_max
        } else {
            mean
        };
        SimDuration::from_secs_f64(self.workload_dice.exp(env))
    }

    fn sample_plan(&mut self, now: SimTime, server: usize, class_id: u16) -> Plan {
        let role = self.servers[server].role;
        let class: &RequestClass = self.cfg.mix.class(class_id);
        let queries = class.queries;
        let demand = if self.demands.is_empty() {
            // Service-time drift (paper §III-B): demands grow linearly with
            // simulated time, e.g. from shifting data selectivity.
            let drift = 1.0 + self.cfg.demand_drift_per_hour * (now.as_secs_f64() / 3_600.0);
            Demand::new(class, role, drift)
        } else {
            self.demands[usize::from(class_id) * ROLES + role as usize]
        };
        let dice = &mut self.servers[server].dice;
        let d = dice.lognormal(&demand.cpu);
        match role {
            Role::Web | Role::Middleware => Plan::calls(d / 2.0, 3),
            Role::App if queries == 0 => Plan::calls(d, 1),
            Role::App => Plan::calls(d / f64::from(queries + 1), 2 * queries + 1),
            Role::Db => {
                let wait = demand.wait.map_or(SimDuration::ZERO, |w| {
                    SimDuration::from_secs_f64(dice.lognormal(&w))
                });
                if wait.is_zero() {
                    Plan::calls(d, 1)
                } else {
                    Plan {
                        cpu: d / 2.0,
                        wait_us: wait.as_micros(),
                        len: 3,
                    }
                }
            }
        }
    }

    fn parent_node(&self, parent: Parent) -> NodeId {
        match parent {
            Parent::User(_) => CLIENT_NODE,
            Parent::Visit { server, .. } => self.servers[server as usize].node,
        }
    }

    fn request_bytes(&self, dst: Role) -> u32 {
        let s = &self.cfg.sizes;
        match dst {
            Role::Web => s.web_req,
            Role::App => s.app_req,
            Role::Middleware => s.mw_req,
            Role::Db => s.db_req,
        }
    }

    fn response_bytes(&self, src: Role) -> u32 {
        let s = &self.cfg.sizes;
        match src {
            Role::Web => s.web_resp,
            Role::App => s.app_resp,
            Role::Middleware => s.mw_resp,
            Role::Db => s.db_resp,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record_msg(
        &mut self,
        at: SimTime,
        src: NodeId,
        dst: NodeId,
        kind: MsgKind,
        conn: u32,
        class: u16,
        bytes: u32,
        txn: u64,
    ) {
        // Server nodes are numbered 1..=n in server-index order (see
        // `node_metas`), so node→server is arithmetic, not a map lookup.
        if let Some(s) = self.server_of(src) {
            self.servers[s].tx_bytes += u64::from(bytes);
        }
        if let Some(d) = self.server_of(dst) {
            self.servers[d].rx_bytes += u64::from(bytes);
        }
        if self.cfg.capture {
            let rec = MsgRecord {
                at,
                src,
                dst,
                kind,
                conn: ConnId(conn),
                class: ClassId(class),
                bytes,
                truth: Some(TxnId(txn)),
            };
            match &mut self.record_tap {
                Some(tap) => tap(rec),
                None => self.log.push(rec),
            }
        }
    }

    /// The server index behind a node id, if any. Server nodes are
    /// `1..=n` in index order; node 0 is the client farm.
    #[inline]
    fn server_of(&self, node: NodeId) -> Option<usize> {
        let i = usize::from(node.0);
        (1..=self.servers.len()).contains(&i).then(|| i - 1)
    }

    /// Connection-pool index of the `src → dst` link.
    ///
    /// # Panics
    ///
    /// Panics if the servers are not in adjacent tiers.
    #[inline]
    fn link(&self, src: usize, dst: usize) -> usize {
        let li = self.links[src * self.servers.len() + dst];
        assert_ne!(li, LINK_NONE, "no link {src} -> {dst}");
        li as usize
    }

    /// (Re)schedules the server's next CPU-completion event.
    ///
    /// Called after every PS mutation. The naive version bumps `cpu_gen`
    /// and schedules a fresh `CpuDone` each time, orphaning the previous
    /// one as a timing-wheel tombstone — and most mutations (a visit
    /// arriving behind the current leader, a response passing through)
    /// don't change *when* the next completion happens, only who's behind
    /// it. The completion token (`cpu_evt`/`cpu_sched_live`) remembers the
    /// armed event's due time; if the freshly predicted time matches, the
    /// armed event is still right — no new entry, no tombstone.
    ///
    /// Reuse is not allowed to perturb ordering: the naive reschedule gives
    /// the replacement event a *fresh* FIFO ticket, so against other events
    /// at the same microsecond it sorts by its latest reschedule, not its
    /// first. Keeping the armed event's original ticket would flip those
    /// ties (observed as byte divergence at WL 8,000, where same-µs
    /// collisions are routine). So reuse re-stamps the armed event with the
    /// ticket a cancel-and-reschedule would have drawn — bit-identical
    /// delivery order, still no wheel churn.
    fn reschedule_cpu(&mut self, now: SimTime, server: usize, sched: &mut Scheduler<Ev>) {
        let s = &mut self.servers[server];
        match s.ps.next_completion(now) {
            Some(t) => {
                if s.cpu_sched_live && s.cpu_evt == t {
                    if let Some(fresh) = sched.restamp(t, s.cpu_seq) {
                        s.cpu_seq = fresh;
                        s.cpu_reuse += 1;
                        return;
                    }
                    // Not in the wheel (overflow-range due time): fall
                    // through to a real reschedule.
                }
                if s.cpu_sched_live {
                    s.cpu_stale += 1;
                }
                s.cpu_gen += 1;
                s.cpu_evt = t;
                s.cpu_sched_live = true;
                s.cpu_seq = sched.at(
                    t,
                    Ev::CpuDone {
                        server: server as u32,
                        gen: s.cpu_gen,
                    },
                );
            }
            None => {
                // Nothing to complete (empty or frozen): invalidate any
                // pending event so it pops dead.
                if s.cpu_sched_live {
                    s.cpu_stale += 1;
                    s.cpu_gen += 1;
                    s.cpu_sched_live = false;
                }
            }
        }
    }

    /// Enters the current segment of a visit (CPU, wait, or downstream
    /// call).
    fn enter_segment(
        &mut self,
        now: SimTime,
        server: usize,
        visit: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        let (seg, txn, class) = {
            let v = self.servers[server]
                .visits
                .get(visit)
                .expect("enter on unknown visit");
            (v.plan.get(v.seg), v.txn, v.class)
        };
        match seg {
            Segment::Cpu(mc) => {
                self.servers[server]
                    .ps
                    .insert_lane(now, JobId(visit), mc, usize::from(class));
            }
            Segment::Wait(d) => {
                let server = server as u32;
                sched.after(d, Ev::WaitDone { server, visit });
            }
            Segment::Call => {
                let tier = self.servers[server].tier;
                let next_tier = &self.tiers[tier + 1];
                let target = next_tier[self.servers[server].rr % next_tier.len()];
                self.servers[server].rr += 1;
                let li = self.link(server, target);
                let conn = self.conn_pools[li].alloc();
                let req = NewRequest {
                    txn,
                    class,
                    parent: Parent::Visit {
                        server: server as u32,
                        visit,
                    },
                    conn,
                };
                sched.after_fixed(
                    self.cfg.net_latency,
                    Ev::Arrive {
                        server: target as u32,
                        req,
                    },
                );
            }
        }
    }

    /// Moves a visit past its just-finished segment.
    fn advance_visit(
        &mut self,
        now: SimTime,
        server: usize,
        visit: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        let more = {
            let v = self.servers[server]
                .visits
                .get_mut(visit)
                .expect("advance on unknown visit");
            v.seg += 1;
            v.seg < v.plan.len
        };
        if more {
            self.enter_segment(now, server, visit, sched);
        } else {
            self.complete_visit(now, server, visit, sched);
        }
    }

    fn complete_visit(
        &mut self,
        now: SimTime,
        server: usize,
        visit: u64,
        sched: &mut Scheduler<Ev>,
    ) {
        let v = self.servers[server]
            .visits
            .remove(visit)
            .expect("complete on unknown visit");
        self.servers[server].threads_busy -= 1;
        self.servers[server].completed += 1;
        let src = self.servers[server].node;
        let dst = self.parent_node(v.parent);
        let bytes = self.response_bytes(self.servers[server].role);
        self.record_msg(
            now,
            src,
            dst,
            MsgKind::Response,
            v.conn,
            v.class,
            bytes,
            v.txn,
        );
        match v.parent {
            Parent::User(u) => {
                sched.after_fixed(self.cfg.net_latency, Ev::ClientResp(u));
            }
            Parent::Visit {
                server: ps,
                visit: pv,
            } => {
                let li = self.link(ps as usize, server);
                sched.after_fixed(
                    self.cfg.net_latency,
                    Ev::RespArrive {
                        server: ps,
                        visit: pv,
                        link: li as u32,
                        conn: v.conn,
                    },
                );
            }
        }
        // Admit from the accept queue.
        while self.servers[server].has_thread_capacity() {
            let Some(next) = self.servers[server].pending.pop_front() else {
                break;
            };
            self.servers[server].threads_busy += 1;
            self.enter_segment(now, server, next, sched);
        }
    }

    /// Handles a request message reaching `server`; returns `false` if the
    /// connection was refused (web-tier admission control).
    fn arrive(&mut self, now: SimTime, server: usize, req: NewRequest, sched: &mut Scheduler<Ev>) {
        let is_root = matches!(req.parent, Parent::User(_));
        {
            let s = &self.servers[server];
            if is_root && !s.has_thread_capacity() && s.pending.len() >= s.backlog {
                // SYN refused: no request message is established; the client
                // retransmits after the TCP timeout.
                let Parent::User(u) = req.parent else {
                    unreachable!()
                };
                self.retransmissions += 1;
                self.users.bump_retries(u);
                sched.after(self.cfg.retrans_timeout, Ev::Retry(u));
                return;
            }
        }
        let src = self.parent_node(req.parent);
        let dst = self.servers[server].node;
        let bytes = self.request_bytes(self.servers[server].role);
        self.record_msg(
            now,
            src,
            dst,
            MsgKind::Request,
            req.conn,
            req.class,
            bytes,
            req.txn,
        );

        let plan = self.sample_plan(now, server, req.class);
        let visit = self.servers[server].visits.insert(Visit {
            txn: req.txn,
            parent: req.parent,
            plan,
            conn: req.conn,
            seg: 0,
            class: req.class,
        });

        // JVM allocation; may trigger a collection.
        let triggered = self.servers[server]
            .gc
            .as_mut()
            .is_some_and(GcState::allocate);
        if triggered {
            let s = &mut self.servers[server];
            let live = s.threads_busy + s.pending.len();
            let pause =
                s.gc.as_mut()
                    .expect("gc vanished")
                    .begin(now, live, &mut s.dice);
            s.ps.set_frozen(now, true);
            s.gc_active = Some((now, 1.0));
            sched.after(pause, Ev::GcPauseEnd(server as u32));
        }

        if self.servers[server].has_thread_capacity() {
            self.servers[server].threads_busy += 1;
            self.enter_segment(now, server, visit, sched);
        } else {
            self.servers[server].pending.push_back(visit);
        }
    }

    fn start_transaction(&mut self, now: SimTime, user: u32, sched: &mut Scheduler<Ev>) {
        let txn = self.next_txn;
        self.next_txn += 1;
        let class = self.workload_dice.weighted(&self.class_weights) as u16;
        self.users.start(user, txn, class, now);
        self.send_to_web(user, sched);
    }

    fn send_to_web(&mut self, user: u32, sched: &mut Scheduler<Ev>) {
        let txn = self.users.txn(user);
        let web_tier = &self.tiers[0];
        let target = web_tier[(txn as usize) % web_tier.len()];
        let req = NewRequest {
            txn,
            class: self.users.class(user),
            parent: Parent::User(user),
            conn: user,
        };
        sched.after_fixed(
            self.cfg.net_latency,
            Ev::Arrive {
                server: target as u32,
                req,
            },
        );
    }

    fn apply_speed(&mut self, now: SimTime, server: usize) {
        let mhz = self.servers[server].effective_mhz();
        self.servers[server].ps.set_speed(now, mhz);
    }
}

impl Actor for NTierSystem<'_> {
    type Event = Ev;

    fn handle(&mut self, now: SimTime, ev: Ev, sched: &mut Scheduler<Ev>) {
        match ev {
            Ev::Boot => {
                for u in 0..self.cfg.users {
                    let d = self.think_delay();
                    sched.after(d, Ev::Think(u));
                }
                for s in 0..self.servers.len() {
                    if let Some(d) = &self.servers[s].dvfs {
                        sched.after(d.config.control_period, Ev::GovTick(s as u32));
                    }
                }
                sched.after(self.cfg.cpu_sample_period, Ev::CpuSample);
                if self.cfg.burst.enabled {
                    let d = self.burst_dice.exp_duration(self.cfg.burst.mean_normal);
                    sched.after(d, Ev::BurstToggle);
                }
            }
            Ev::Think(u) => {
                // Lewis thinning: the timer runs at the burst-envelope rate;
                // accept with probability factor/now-envelope.
                if self.cfg.burst.enabled {
                    let accept = self.burst_factor / self.cfg.burst.factor_max;
                    if !self.workload_dice.chance(accept.min(1.0)) {
                        let d = self.think_delay();
                        sched.after(d, Ev::Think(u));
                        return;
                    }
                }
                self.start_transaction(now, u, sched);
            }
            Ev::Retry(u) => {
                self.send_to_web(u, sched);
            }
            Ev::Arrive { server, req } => {
                let server = server as usize;
                self.arrive(now, server, req, sched);
                self.reschedule_cpu(now, server, sched);
            }
            Ev::RespArrive {
                server,
                visit,
                link,
                conn,
            } => {
                let server = server as usize;
                debug_assert!(matches!(
                    self.servers[server]
                        .visits
                        .get(visit)
                        .map(|v| v.plan.get(v.seg)),
                    Some(Segment::Call)
                ));
                self.conn_pools[link as usize].release(conn);
                self.advance_visit(now, server, visit, sched);
                self.reschedule_cpu(now, server, sched);
            }
            Ev::ClientResp(u) => {
                let txn = TxnSample {
                    user: u,
                    class: self.users.class(u),
                    started: self.users.started(u),
                    finished: now,
                    retries: self.users.retries(u),
                };
                if self.cfg.measured().contains(&now) {
                    self.txns.add(&txn);
                }
                if let Some(tap) = &mut self.txn_tap {
                    tap(txn);
                }
                let d = self.think_delay();
                sched.after(d, Ev::Think(u));
            }
            Ev::CpuDone { server, gen } => {
                let server = server as usize;
                if gen != self.servers[server].cpu_gen {
                    return;
                }
                // This event was the pending completion token; it has fired.
                self.servers[server].cpu_sched_live = false;
                // Drain into the reusable batch buffer (taken out of `self`
                // so `advance_visit` can borrow the system mutably).
                let mut done = std::mem::take(&mut self.cpu_done);
                self.servers[server].ps.pop_due_into(now, &mut done);
                for &JobId(visit) in &done {
                    self.advance_visit(now, server, visit, sched);
                }
                self.cpu_done = done;
                self.reschedule_cpu(now, server, sched);
            }
            Ev::WaitDone { server, visit } => {
                let server = server as usize;
                self.advance_visit(now, server, visit, sched);
                self.reschedule_cpu(now, server, sched);
            }
            Ev::GcPauseEnd(server) => {
                let server = server as usize;
                let (start, collected) = {
                    let s = &mut self.servers[server];
                    let gc = s.gc.as_mut().expect("GC pause end without GC");
                    let start = gc.started;
                    let collected = gc.collecting_mb;
                    s.gc_busy_full +=
                        f64::from(s.cores) * now.saturating_since(start).as_secs_f64();
                    s.gc_stw_end = now;
                    (start, collected)
                };
                let cycle = self.servers[server]
                    .gc
                    .as_mut()
                    .expect("gc vanished")
                    .end_pause();
                self.servers[server].ps.set_frozen(now, false);
                match cycle {
                    None => {
                        self.servers[server].gc_active = None;
                        self.gc_events.push(GcEvent {
                            server,
                            start,
                            stw_end: now,
                            end: now,
                            collected_mb: collected,
                        });
                    }
                    Some(d) => {
                        let tax = self.servers[server]
                            .gc
                            .as_ref()
                            .expect("gc vanished")
                            .config
                            .concurrent_tax;
                        self.servers[server].gc_active = Some((now, tax));
                        sched.after(d, Ev::GcCycleEnd(server as u32));
                    }
                }
                self.apply_speed(now, server);
                self.reschedule_cpu(now, server, sched);
            }
            Ev::GcCycleEnd(server) => {
                let server = server as usize;
                let (start, stw_end, collected) = {
                    let s = &mut self.servers[server];
                    let gc = s.gc.as_mut().expect("GC cycle end without GC");
                    let (cycle_start, frac) = s.gc_active.expect("cycle not active");
                    s.gc_busy_full +=
                        f64::from(s.cores) * frac * now.saturating_since(cycle_start).as_secs_f64();
                    s.gc_active = None;
                    let out = (gc.started, s.gc_stw_end, gc.collecting_mb);
                    gc.end_cycle();
                    out
                };
                self.gc_events.push(GcEvent {
                    server,
                    start,
                    stw_end,
                    end: now,
                    collected_mb: collected,
                });
                self.apply_speed(now, server);
                self.reschedule_cpu(now, server, sched);
            }
            Ev::GovTick(server) => {
                let server = server as usize;
                let busy = self.servers[server].busy_core_seconds(now);
                let cores = self.servers[server].cores;
                let Some(dvfs) = &mut self.servers[server].dvfs else {
                    return;
                };
                let period = dvfs.config.control_period;
                let before = dvfs.index;
                let (idx, util) = dvfs.tick(now, busy, cores);
                self.pstate_log.push(PStateSample {
                    server,
                    at: now,
                    util,
                    pstate: idx,
                    mhz: crate::dvfs::XEON_PSTATES[idx].mhz,
                });
                sched.after(period, Ev::GovTick(server as u32));
                if idx != before {
                    self.apply_speed(now, server);
                    self.reschedule_cpu(now, server, sched);
                }
            }
            Ev::CpuSample => {
                for s in 0..self.servers.len() {
                    let busy = self.servers[s].busy_core_seconds(now);
                    self.cpu_busy[s].push(CpuSample {
                        at: now,
                        busy_core_seconds: busy,
                    });
                }
                sched.after(self.cfg.cpu_sample_period, Ev::CpuSample);
            }
            Ev::BurstToggle => {
                if self.burst_factor == 1.0 {
                    self.burst_factor = self.burst_dice.bounded_pareto(
                        self.cfg.burst.factor_alpha,
                        self.cfg.burst.factor_min,
                        self.cfg.burst.factor_max,
                    );
                    let d = self.burst_dice.exp_duration(self.cfg.burst.mean_burst);
                    sched.after(d, Ev::BurstToggle);
                } else {
                    self.burst_factor = 1.0;
                    let d = self.burst_dice.exp_duration(self.cfg.burst.mean_normal);
                    sched.after(d, Ev::BurstToggle);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Jdk;

    #[test]
    fn conn_pool_reuses_released_ids() {
        let mut pool = ConnPool {
            base: 1 << 20,
            free: Vec::new(),
            next: 0,
        };
        let a = pool.alloc();
        let b = pool.alloc();
        assert_eq!(a, 1 << 20);
        assert_eq!(b, (1 << 20) + 1);
        pool.release(a);
        assert_eq!(pool.alloc(), a, "released ids are reused");
        assert_eq!(pool.alloc(), (1 << 20) + 2);
    }

    #[test]
    fn tier_roles_for_three_and_four_tier_stacks() {
        // 4-tier: web / app / middleware / db.
        assert_eq!(role_of(0, 4), Role::Web);
        assert_eq!(role_of(1, 4), Role::App);
        assert_eq!(role_of(2, 4), Role::Middleware);
        assert_eq!(role_of(3, 4), Role::Db);
        // 3-tier: the middleware role disappears.
        assert_eq!(role_of(0, 3), Role::Web);
        assert_eq!(role_of(1, 3), Role::App);
        assert_eq!(role_of(2, 3), Role::Db);
        // Degenerate single tier is a leaf.
        assert_eq!(role_of(0, 1), Role::Db);
    }

    #[test]
    fn visit_plans_match_tier_roles() {
        let cfg = SystemConfig::paper_1l2s1l2s(10, Jdk::Jdk16, false, 1);
        let mut sys = NTierSystem::new(cfg);
        // Web (server 0): pre-CPU, one call, post-CPU.
        let web = sys.sample_plan(SimTime::ZERO, 0, 0);
        assert_eq!(web.len, 3);
        assert!(matches!(web.get(0), Segment::Cpu(_)));
        assert!(matches!(web.get(1), Segment::Call));
        // App (server 1): q calls interleaved with q+1 CPU slices.
        let q = sys.cfg.mix.class(0).queries as usize;
        let app = sys.sample_plan(SimTime::ZERO, 1, 0);
        assert_eq!(app.len as usize, 2 * q + 1);
        assert_eq!(app.iter().filter(|s| matches!(s, Segment::Call)).count(), q);
        // Db (server 4): CPU around a non-CPU wait, no calls.
        let db = sys.sample_plan(SimTime::ZERO, 4, 0);
        assert!(db.iter().all(|s| !matches!(s, Segment::Call)));
        assert!(db.iter().any(|s| matches!(s, Segment::Wait(_))));
    }

    #[test]
    fn plans_of_any_length_alternate_cpu_with_calls_or_waits() {
        // Far past the 24 segments the inline plan list used to hold: a
        // plan is three words whatever its length.
        let calls = Plan::calls(1.5, 2 * 40 + 1);
        assert_eq!(calls.iter().count(), 81);
        for (i, seg) in calls.iter().enumerate() {
            match seg {
                Segment::Cpu(mc) => assert!(i % 2 == 0 && mc == 1.5),
                Segment::Call => assert!(i % 2 == 1),
                Segment::Wait(_) => panic!("a call plan waited at {i}"),
            }
        }
        let wait = Plan {
            cpu: 0.25,
            wait_us: 700,
            len: 3,
        };
        assert!(matches!(wait.get(0), Segment::Cpu(mc) if mc == 0.25));
        assert!(matches!(wait.get(1), Segment::Wait(d) if d == SimDuration::from_micros(700)));
        assert!(matches!(wait.get(2), Segment::Cpu(mc) if mc == 0.25));
        assert!(
            std::mem::size_of::<Visit>() <= 64,
            "Visit grew past a cache line"
        );
    }

    #[test]
    fn monitor_overhead_slows_the_clock() {
        let cfg =
            SystemConfig::paper_1l2s1l2s(10, Jdk::Jdk16, false, 1).with_monitoring_overhead(0.12);
        let sys = NTierSystem::new(cfg);
        // Apache: 2 cores at 2261 MHz, 12% of one core stolen -> 6% slower.
        let apache = &sys.servers[0];
        assert!((apache.effective_mhz() - 2261.0 * 0.94).abs() < 1e-9);
        // Tomcat: 1 core -> full 12% tax.
        let tomcat = &sys.servers[1];
        assert!((tomcat.effective_mhz() - 2261.0 * 0.88).abs() < 1e-9);
    }

    #[test]
    fn burst_factor_toggles_between_one_and_sampled() {
        let cfg = SystemConfig::paper_1l2s1l2s(10, Jdk::Jdk16, false, 1);
        let lo = cfg.burst.factor_min;
        let hi = cfg.burst.factor_max;
        let mut sim = Simulation::new(NTierSystem::new(cfg));
        sim.prime(SimTime::ZERO, Ev::Boot);
        sim.run_until(SimTime::from_secs(30));
        // After 30 s the modulator has flipped several times; whatever state
        // it is in, the factor is either 1.0 or inside the Pareto support.
        let f = sim.actor().burst_factor;
        assert!(f == 1.0 || (lo..=hi).contains(&f), "factor {f}");
    }
}

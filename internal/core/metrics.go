package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/shm"
	"clam/internal/wire"
)

// Server instrumentation. The paper's group built IPS, an "interactive
// and automatic performance measurement tool for parallel and distributed
// programs" (reference [8]), and §5's call-cost table presupposes exactly
// this kind of counting inside the server. Metrics are cheap counters
// updated on the dispatch paths and snapshotted on demand — clamd exposes
// them and tests assert against them.
//
// Scalar counters are atomics and the per-method map is sharded by a
// string hash, so counting on the hot dispatch path never funnels every
// session through one mutex.

// callShards is the number of per-method map shards; a power of two so
// the hash can be masked.
const callShards = 16

// callKey identifies one method without materializing the "class.Method"
// string on the dispatch path — the concatenation is deferred to snapshot
// time, keeping countCall allocation-free.
type callKey struct {
	class, method string
}

type callShard struct {
	mu sync.Mutex
	m  map[callKey]uint64
}

// metrics is the live counter set. Link-level counters (heartbeats,
// retries, timeouts) live in the shared linkCounters struct the endpoint
// engine counts into — the same struct backs the client's metrics, since
// both roles run the same engine.
type metrics struct {
	syncCalls      atomic.Uint64
	asyncCalls     atomic.Uint64
	batches        atomic.Uint64
	upcalls        atomic.Uint64
	upcallFails    atomic.Uint64
	upcallTimeouts atomic.Uint64
	faults         atomic.Uint64
	loads          atomic.Uint64
	faultReports   atomic.Uint64
	evictions      atomic.Uint64
	rejectedSess   atomic.Uint64

	// Per-hop forwarding counters: calls relayed to an upstream (lower)
	// server, and upcalls relayed from it back toward our clients.
	callsRelayed   atomic.Uint64
	upcallsRelayed atomic.Uint64

	// resumes counts sessions successfully resurrected after a link loss
	// (the server side of a client reconnect).
	resumes atomic.Uint64

	// Mesh routing counters (mesh.go): named lookups resolved to an owning
	// peer and routed there, and calls failed fast because the owner's
	// link was down or its breaker open.
	meshRouted   atomic.Uint64
	meshPeerDown atomic.Uint64

	// Multicast fan-out counters (fanout.go). Published counts Publish
	// calls (plus events republished by upstream relays); delivered and
	// failed count per-subscriber delivery attempts; coalesced counts
	// pending events superseded or deduplicated before delivery; the
	// drop counters split queue losses by cause.
	fanPublished     atomic.Uint64
	fanDelivered     atomic.Uint64
	fanRelayed       atomic.Uint64
	fanCoalesced     atomic.Uint64
	fanDeliveryFails atomic.Uint64
	fanDropsOldest   atomic.Uint64
	fanDropsNewest   atomic.Uint64
	fanDropsClosed   atomic.Uint64

	// Transport accounting while shared memory is on offer: sessions that
	// arrived over the ring broker vs. socket sessions accepted anyway
	// (remote clients, WithoutSharedMemory, or a failed rendezvous).
	shmConns     atomic.Uint64
	shmFallbacks atomic.Uint64

	// Deadline/cancel counters (§6.8). budgetedCalls counts frames that
	// arrived carrying a nonzero budget; shedExpired/shedCancelled count
	// calls refused without executing (budget spent / MsgCancel landed
	// first); shedAdmission counts calls the admission layer refused at
	// the read loop (WithMaxQueueDelay); cancelsRecv counts call seqs
	// named by MsgCancel frames received; handlerCancels counts cancels
	// that landed on an in-flight handler's context.
	budgetedCalls  atomic.Uint64
	shedExpired    atomic.Uint64
	shedCancelled  atomic.Uint64
	shedAdmission  atomic.Uint64
	cancelsRecv    atomic.Uint64
	handlerCancels atomic.Uint64

	// queueDelay is an EWMA (α=1/8) of dispatch queue wait in nanoseconds,
	// maintained only when admission control is on; queueDelayAt is the
	// UnixNano of its last sample. Samples only arrive when frames are
	// dispatched, so a raw EWMA would lock the admission layer out
	// forever: refuse everything → no dispatches → no samples → the
	// stale high estimate never falls. queueDelayEstimate ages the value
	// by its sample age instead — while admission refuses, the queue is
	// draining, so the expected wait falls at least that fast. Both race
	// benignly: a lost update skews the estimate by one sample.
	queueDelay   atomic.Int64
	queueDelayAt atomic.Int64

	// pendingFrames counts call frames admitted but not yet fully
	// executed, and svcTime is an EWMA (α=1/8) of per-frame execution
	// wall time — together they give the admission layer a queueing
	// estimate (pending × service / workers) that reacts to its own
	// admissions instantly, where a wait-EWMA alone herd-admits a burst
	// before the first sample lands. Maintained only under
	// WithMaxQueueDelay.
	pendingFrames atomic.Int64
	svcTime       atomic.Int64

	link linkCounters

	shards [callShards]callShard
}

func newMetrics() *metrics {
	m := &metrics{}
	for i := range m.shards {
		m.shards[i].m = make(map[callKey]uint64)
	}
	return m
}

// fnv1a is the 32-bit FNV-1a hash, inlined to keep countCall allocation-free.
func fnv1a(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

func (m *metrics) countCall(class, method string, sync bool) {
	sh := &m.shards[(fnv1a(class)^fnv1a(method))&(callShards-1)]
	sh.mu.Lock()
	sh.m[callKey{class, method}]++
	sh.mu.Unlock()
	if sync {
		m.syncCalls.Add(1)
	} else {
		m.asyncCalls.Add(1)
	}
}

func (m *metrics) countBatch() { m.batches.Add(1) }

func (m *metrics) countUpcall(failed bool) {
	m.upcalls.Add(1)
	if failed {
		m.upcallFails.Add(1)
	}
}

func (m *metrics) countUpcallTimeout() { m.upcallTimeouts.Add(1) }
func (m *metrics) countFault()         { m.faults.Add(1) }
func (m *metrics) countLoad()          { m.loads.Add(1) }
func (m *metrics) countFaultReport()   { m.faultReports.Add(1) }
func (m *metrics) countEviction()      { m.evictions.Add(1) }
func (m *metrics) countRejected()      { m.rejectedSess.Add(1) }
func (m *metrics) countRelayedCall()   { m.callsRelayed.Add(1) }
func (m *metrics) countRelayedUpcall() { m.upcallsRelayed.Add(1) }
func (m *metrics) countResume()        { m.resumes.Add(1) }

// noteQueueDelay folds one observed queue wait (execBatch start minus
// frame arrival) into the EWMA: new = old·7/8 + sample/8.
func (m *metrics) noteQueueDelay(waitNanos int64) {
	if waitNanos < 0 {
		waitNanos = 0
	}
	old := m.queueDelay.Load()
	m.queueDelay.Store(old - old/8 + waitNanos/8)
	m.queueDelayAt.Store(time.Now().UnixNano())
}

// noteServiceTime folds one frame's execution wall time into the
// service-time EWMA.
func (m *metrics) noteServiceTime(d time.Duration) {
	old := m.svcTime.Load()
	m.svcTime.Store(old - old/8 + int64(d)/8)
}

// queueDelayEstimate is the admission layer's expected queue wait for a
// frame arriving now: frames ahead of it times the per-frame service
// estimate, divided by the workers draining them. Because each admitted
// frame raises pendingFrames before the next admission decision, a burst
// sees the queue it is building — no herd admission, no estimator
// lockout (an empty queue estimates zero regardless of history).
func (m *metrics) queueDelayEstimate(workers int) int64 {
	pending := m.pendingFrames.Load()
	if pending <= 0 {
		return 0
	}
	if workers < 1 {
		workers = 1
	}
	return pending * m.svcTime.Load() / int64(workers)
}

// MetricsSnapshot is a point-in-time copy of the server's counters.
type MetricsSnapshot struct {
	// Calls maps "class.Method" to its dispatch count (all outcomes).
	Calls map[string]uint64
	// SyncCalls and AsyncCalls split dispatches by reply expectation.
	SyncCalls, AsyncCalls uint64
	// Batches counts MsgCall messages (each carrying >=1 calls).
	Batches uint64
	// Upcalls counts distributed upcalls initiated; UpcallFailures those
	// that ended in timeout, disconnect or a handler error.
	Upcalls, UpcallFailures uint64
	// UpcallTimeouts counts the subset of upcall failures caused by the
	// liveness timeout (WithUpcallTimeout) expiring.
	UpcallTimeouts uint64
	// Faults counts panics caught in loaded code; FaultReports the error
	// upcalls sent for them.
	Faults, FaultReports uint64
	// Loads counts load-protocol operations that succeeded.
	Loads uint64
	// Evictions counts sessions the server terminated for cause: a missed
	// liveness window or a slow upcall consumer.
	Evictions uint64
	// RejectedSessions counts connections refused by WithMaxSessions.
	RejectedSessions uint64
	// LinkStats carries the shared endpoint-engine counters (heartbeats,
	// retries, timeouts) aggregated across all sessions. Embedded, so
	// HeartbeatsSent and HeartbeatsReceived promote as before.
	LinkStats
	// Forwarding carries the per-hop relay counters for a server that
	// dialed an upstream (lower) server.
	Forwarding ForwardingStats
	// Dispatch describes the dispatch engine and its executor counters.
	Dispatch DispatchStats
	// Resilience carries the session-resurrection counters, aggregated
	// over this server's own sessions and its upstream links.
	Resilience ResilienceStats
	// Fanout carries the multicast counters (RegisterMulticast/Publish).
	Fanout FanoutStats
	// Mesh describes this server's membership in a federated peer mesh
	// (JoinMesh); zero-valued with Enabled false outside a mesh.
	Mesh MeshStats
	// Journal carries the write-ahead journal counters (WithJournal);
	// zero-valued with Enabled false when the server runs without one.
	Journal JournalStats
	// Transport describes the byte-transport fast paths: shared-memory
	// ring activity (WithSharedMemory) and vectored socket writes.
	Transport TransportStats
	// Overload carries the deadline-budget, cancellation and shedding
	// counters (§6.8).
	Overload OverloadStats
}

// OverloadStats counts deadline-budget and cancellation activity (§6.8).
type OverloadStats struct {
	// SheddingEnabled reports whether expired-budget shedding is active
	// (the default; WithoutDeadlineShedding turns it off for ablation).
	SheddingEnabled bool
	// BudgetedCalls counts call frames that arrived carrying a nonzero
	// deadline budget.
	BudgetedCalls uint64
	// ShedExpired counts calls refused with StatusDeadline before
	// executing because their budget was already spent; ShedCancelled
	// counts calls refused because a MsgCancel named them first;
	// ShedAdmission counts calls the admission layer (WithMaxQueueDelay)
	// refused at the read loop because the estimated queue wait alone
	// would exhaust their budget or exceed the configured ceiling.
	ShedExpired, ShedCancelled, ShedAdmission uint64
	// CancelsReceived counts call seqs named by MsgCancel frames this
	// server received; HandlerCancels the subset that landed on an
	// in-flight handler and cancelled its context; CancelsPropagated
	// counts seqs this server shipped onward in MsgCancel frames over
	// its peer links (chain upstreams and mesh peers).
	CancelsReceived, HandlerCancels, CancelsPropagated uint64
	// QueueDelayEWMANanos is the admission layer's running estimate of
	// dispatch queue wait (zero unless WithMaxQueueDelay is set).
	QueueDelayEWMANanos uint64
}

// TransportStats describes the transport fast paths. The shm counters are
// process-wide (rings are a process resource, not a per-server one); the
// session split (ShmSessions/SocketFallbacks) is this server's own.
type TransportStats struct {
	// ShmEnabled reports whether this server offers the shared-memory
	// rendezvous (WithSharedMemory on a supported platform).
	ShmEnabled bool
	// ShmSessions counts connections accepted over rings;
	// SocketFallbacks counts socket connections accepted while shm was on
	// offer — nonzero is normal for remote clients, and for same-host
	// clients it means the rendezvous failed (see OPERATIONS).
	ShmSessions, SocketFallbacks uint64
	// DoorbellWakeups counts eventfd wakeups (slow-path write(2)s);
	// DoorbellSleeps counts parks behind an armed doorbell. Both zero
	// under steady ping-pong load is the hot path working as designed.
	DoorbellWakeups, DoorbellSleeps uint64
	// RingHighWater is the most bytes observed queued in any ring — the
	// occupancy signal for sizing WithSharedMemory's ring.
	RingHighWater uint64
	// WritevFlushes counts vectored gather-writes on kernel sockets;
	// WritevFrames the frames they carried. Frames/Flushes is the syscall
	// batching factor.
	WritevFlushes, WritevFrames uint64
}

// JournalStats describes the write-ahead journal (journal.go) and what
// the last recovery rebuilt from it.
type JournalStats struct {
	// Enabled reports whether the server runs with WithJournal.
	Enabled bool
	// Appends counts records accepted; SyncAppends the subset that waited
	// for their fsync (grants, mints, registrations); Fsyncs the actual
	// disk syncs — group commit makes Fsyncs << Appends under load.
	Appends, SyncAppends, Fsyncs uint64
	// Compactions counts snapshot rewrites; SizeBytes is the journal file's
	// current size.
	Compactions uint64
	SizeBytes   int64
	// RecoveredSessions, RecoveredHandles and RecoveredSubs report what the
	// last restart rebuilt from the journal.
	RecoveredSessions, RecoveredHandles, RecoveredSubs uint64
	// TornTailTruncated reports that the journal ended mid-record on open
	// (crash during a write) and recovery truncated to the last complete
	// record — expected after a hard crash, a red flag otherwise.
	TornTailTruncated bool
}

// FanoutStats counts multicast fan-out activity (fanout.go).
type FanoutStats struct {
	// SubscribersLive is the current live subscription count across all
	// topics; Topics the number of declared multicast procedures; Shards
	// the subscription table's shard count.
	SubscribersLive, Topics, Shards uint64
	// EventsPublished counts Publish calls, including events an upstream
	// relay republished here; EventsRelayed is that relayed subset — on
	// a middle tier, EventsRelayed equal to the upstream's per-topic
	// publish count is the signature of tree multiplication (one event
	// per hop, multiplied locally).
	EventsPublished, EventsRelayed uint64
	// EventsDelivered counts per-subscriber deliveries completed;
	// DeliveryFailures attempts that errored (timeout, disconnect,
	// handler error) — failed deliveries are not retried, preserving
	// at-most-once.
	EventsDelivered, DeliveryFailures uint64
	// EventsCoalesced counts pending events superseded (last-event-wins
	// topics) or deduplicated (identical tail) before delivery.
	EventsCoalesced uint64
	// QueueDropsOldest counts DropOldest evictions of stale pending
	// events; QueueDropsNewest counts events a full Queue-policy queue
	// rejected; QueueDropsClosed counts pending events discarded when a
	// subscription closed. Block-policy queues never drop.
	QueueDropsOldest, QueueDropsNewest, QueueDropsClosed uint64
}

// MeshStats describes a server's place in a federated mesh (mesh.go).
type MeshStats struct {
	// Enabled reports whether the server has joined a mesh; Self is its
	// member name there.
	Enabled bool
	Self    string
	// Peers is the directory's member count (including this server);
	// PeersUp the members currently believed reachable.
	Peers, PeersUp uint64
	// RoutedNamed counts named-object lookups resolved through the
	// directory to an owning peer; PeerDownFailures counts operations
	// failed fast with ErrPeerDown because the owner was unreachable.
	RoutedNamed, PeerDownFailures uint64
}

// ResilienceStats counts session-resurrection events. The same struct
// appears on both sides of a hop: a client (or a middle tier's upstream
// link) counts reconnects and replays; the server it reconnects to counts
// resumes and duplicate drops.
type ResilienceStats struct {
	// Reconnects counts successful session resumes: on a server, its own
	// sessions resurrected plus upstream links it re-established; on a
	// client, links it re-established.
	Reconnects uint64
	// ReplayedCalls counts batched asynchronous calls retransmitted after
	// a resume because the peer never acknowledged them.
	ReplayedCalls uint64
	// DedupDrops counts replayed call frames discarded by the receive
	// window because they had already executed — the visible half of the
	// at-most-once guarantee.
	DedupDrops uint64
	// RetransmitDrops counts unacknowledged batches evicted from the
	// bounded replay buffer. Nonzero means a later resume may find a hole
	// in its replay range and fail with ErrReplayGap instead of silently
	// losing those calls.
	RetransmitDrops uint64
	// BreakerOpens counts times an upstream circuit breaker tripped open
	// (WithUpstreamBreaker).
	BreakerOpens uint64
}

// foldLink accumulates one link's resurrection counters — and its circuit
// breaker's trips, if one is armed — into r. The client's own link, a
// server's session links and every peer link (chain or mesh) all aggregate
// through this one helper, so the folding rules cannot drift apart per
// link kind.
func (r *ResilienceStats) foldLink(lc *linkCounters, br *breaker) {
	r.Reconnects += lc.reconnects.Load()
	r.ReplayedCalls += lc.replayed.Load()
	r.DedupDrops += lc.dedups.Load()
	r.RetransmitDrops += lc.rtDrops.Load()
	if br != nil {
		r.BreakerOpens += br.opens.Load()
	}
}

// DispatchStats describes the server's dispatch executor. Under the serial
// ablation it reports {Workers: 1, PerObject: false}; the counters below
// are kept in both policies.
type DispatchStats struct {
	// Workers is the configured bound on simultaneously running handlers.
	Workers int
	// PerObject reports the per-object policy; false under the serial
	// ablation.
	PerObject bool
	// Parallelism is the high-water mark of handlers running at once;
	// handlers blocked in a yield do not count, so the serial ablation
	// never reports more than 1.
	Parallelism uint64
	// QueueDepth is the number of queued-or-running messages right now.
	QueueDepth uint64
	// WorkerStalls counts handler blocks (distributed upcalls, forwarded
	// calls, relayed Syncs) that released a worker slot mid-message.
	WorkerStalls uint64
}

// ForwardingStats counts multi-hop traffic through a middle-tier server.
type ForwardingStats struct {
	// CallsRelayedDown counts calls on proxy handles forwarded to an
	// upstream server.
	CallsRelayedDown uint64
	// UpcallsRelayedUp counts upcalls from an upstream server relayed on
	// toward this server's own clients.
	UpcallsRelayedUp uint64
	// ProxyHandlesLive is the number of handle-table entries currently
	// naming remote (upstream) objects rather than local instances.
	ProxyHandlesLive uint64
}

// TopCalls returns the busiest methods, most-called first, at most n.
func (s MetricsSnapshot) TopCalls(n int) []string {
	type kv struct {
		k string
		v uint64
	}
	all := make([]kv, 0, len(s.Calls))
	for k, v := range s.Calls {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].v != all[j].v {
			return all[i].v > all[j].v
		}
		return all[i].k < all[j].k
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].k
	}
	return out
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() MetricsSnapshot {
	m := s.metrics
	calls := make(map[string]uint64)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for k, v := range sh.m {
			calls[k.class+"."+k.method] = v
		}
		sh.mu.Unlock()
	}
	snap := MetricsSnapshot{
		Calls:            calls,
		SyncCalls:        m.syncCalls.Load(),
		AsyncCalls:       m.asyncCalls.Load(),
		Batches:          m.batches.Load(),
		Upcalls:          m.upcalls.Load(),
		UpcallFailures:   m.upcallFails.Load(),
		UpcallTimeouts:   m.upcallTimeouts.Load(),
		Faults:           m.faults.Load(),
		FaultReports:     m.faultReports.Load(),
		Loads:            m.loads.Load(),
		Evictions:        m.evictions.Load(),
		RejectedSessions: m.rejectedSess.Load(),
		LinkStats:        m.link.snapshot(),
		Forwarding: ForwardingStats{
			CallsRelayedDown: m.callsRelayed.Load(),
			UpcallsRelayedUp: m.upcallsRelayed.Load(),
		},
		Dispatch:   s.exec.stats(),
		Resilience: ResilienceStats{Reconnects: m.resumes.Load()},
		Fanout: FanoutStats{
			EventsPublished:  m.fanPublished.Load(),
			EventsRelayed:    m.fanRelayed.Load(),
			EventsDelivered:  m.fanDelivered.Load(),
			DeliveryFailures: m.fanDeliveryFails.Load(),
			EventsCoalesced:  m.fanCoalesced.Load(),
			QueueDropsOldest: m.fanDropsOldest.Load(),
			QueueDropsNewest: m.fanDropsNewest.Load(),
			QueueDropsClosed: m.fanDropsClosed.Load(),
		},
	}
	// Fold in the session engine's shared counters (replays/dedups on the
	// server's own links; its reconnects are the resumes counted above)
	// and every peer link — chain upstreams and mesh peers alike:
	// reconnects/replays their resurrect loops performed toward the peer,
	// and breaker trips.
	snap.Resilience.foldLink(&m.link, nil)
	snap.Overload = OverloadStats{
		SheddingEnabled:     s.shedExpired(),
		BudgetedCalls:       m.budgetedCalls.Load(),
		ShedExpired:         m.shedExpired.Load(),
		ShedCancelled:       m.shedCancelled.Load(),
		ShedAdmission:       m.shedAdmission.Load(),
		CancelsReceived:     m.cancelsRecv.Load(),
		HandlerCancels:      m.handlerCancels.Load(),
		QueueDelayEWMANanos: uint64(m.queueDelay.Load()),
	}
	s.mu.Lock()
	links := make([]*peerLink, len(s.peers))
	copy(links, s.peers)
	s.mu.Unlock()
	for _, pl := range links {
		snap.Resilience.foldLink(pl.c.link, pl.br)
		snap.Overload.CancelsPropagated += pl.c.link.cancels.Load()
	}
	if ms := s.meshSnapshot(); ms != nil {
		snap.Mesh = *ms
	}
	if s.journal != nil {
		js := s.journal.Stats()
		snap.Journal = JournalStats{
			Enabled:           true,
			Appends:           js.Appends,
			SyncAppends:       js.SyncAppends,
			Fsyncs:            js.Fsyncs,
			Compactions:       js.Compactions,
			SizeBytes:         js.SizeBytes,
			RecoveredSessions: s.recov.sessions.Load(),
			RecoveredHandles:  s.recov.handles.Load(),
			RecoveredSubs:     s.recov.subs.Load(),
			TornTailTruncated: s.recov.torn.Load(),
		}
	}
	shmStats := shm.Snapshot()
	vecFlushes, vecFrames := wire.VecStats()
	snap.Transport = TransportStats{
		ShmEnabled:      s.shmEnabled,
		ShmSessions:     m.shmConns.Load(),
		SocketFallbacks: m.shmFallbacks.Load(),
		DoorbellWakeups: shmStats.DoorbellWakeups,
		DoorbellSleeps:  shmStats.DoorbellSleeps,
		RingHighWater:   shmStats.RingHighWater,
		WritevFlushes:   vecFlushes,
		WritevFrames:    vecFrames,
	}
	if s.fan != nil {
		snap.Fanout.SubscribersLive = uint64(s.fan.subs.Len())
		snap.Fanout.Topics = uint64(s.fan.topicCount())
		snap.Fanout.Shards = uint64(s.fan.subs.ShardCount())
	}
	if s.handles != nil {
		snap.Forwarding.ProxyHandlesLive = uint64(s.handles.CountFunc(func(obj any) bool {
			_, isProxy := obj.(*Remote)
			return isProxy
		}))
	}
	return snap
}

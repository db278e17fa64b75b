package core

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"clam/internal/dynload"
	"clam/internal/handle"
	"clam/internal/journal"
	"clam/internal/ruc"
)

// Server-side write-ahead journal integration (internal/journal): the
// durable half of session resurrection. With WithJournal, the server
// records its control plane — resume-token grants and epoch bumps,
// handle mints/revocations, name bindings, RUC and multicast
// registrations, and per-session receive high-water marks — and on the
// next start replays the log to rebuild the park table, the handle/tag
// space and the fan-out shards, so the existing MsgResume handshake
// reattaches clients across a server crash with no client-side changes.
//
// Recovery runs in two phases. Phase 1 (NewServer) opens the journal and
// floors every identifier space with the journaled maxima, so nothing
// minted by the new incarnation — including the application's bootstrap
// objects — can collide with an identifier a surviving client holds.
// Phase 2 (first Serve/Accept) rebuilds live state: parked sessions
// first, then handle-table entries re-bound to re-registered named
// objects or re-instantiated class instances, then multicast
// subscriptions. Phase 2 is deferred to Serve so the application has
// re-registered its classes, named objects and topics in between —
// exactly the clamd bootstrap order.

// WithJournal enables the write-ahead journal in dir: the server records
// session grants, handle mints, registrations and receive marks there,
// and replays the log on the next start so parked sessions survive a
// server crash. Enabling the journal implies session resurrection; if no
// WithResumeWindow is configured, a 30s window is applied. Control-plane
// records are fsynced before the reply that depends on them; per-call
// receive marks are coalesced into the group commit, keeping the hot
// call path off the disk (DESIGN.md §6.5).
func WithJournal(dir string) ServerOption {
	return func(s *Server) { s.journalDir = dir }
}

// journalRecovery holds what phase 2 rebuilt, for MetricsSnapshot.Journal.
// Atomics, because Metrics may snapshot concurrently with recovery.
type journalRecovery struct {
	sessions, handles, subs, rucs atomic.Uint64
	torn                          atomic.Bool
}

// openJournal is recovery phase 1, called at the end of NewServer: open
// (or create) the log, replay it to the recovered state, and floor the
// id allocators. An open failure is stashed and surfaced by Serve/Listen
// — NewServer has no error return, and a durability server that silently
// runs non-durable would be worse than one that refuses to start.
func (s *Server) openJournal() {
	if s.journalDir == "" {
		return
	}
	if s.resumeWindow <= 0 {
		s.resumeWindow = 30 * time.Second
	}
	j, st, err := journal.Open(s.journalDir, journal.Options{Log: s.logf})
	if err != nil {
		s.journalErr = fmt.Errorf("clam: opening journal: %w", err)
		return
	}
	s.journal = j
	s.jstate = st
	s.recov.torn.Store(st.Truncated)
	s.handles.FloorID(handle.ID(st.MaxHandle))
	s.rucs.Floor(st.MaxRUC)
	s.fan.subs.Floor(st.MaxSub)
	s.nextSess = st.MaxSession
}

// ensureRecovered is recovery phase 2, run once before the first accept.
func (s *Server) ensureRecovered() {
	if s.journal == nil {
		return
	}
	s.recoverOnce.Do(s.recoverFromJournal)
}

func (s *Server) recoverFromJournal() {
	st := s.jstate
	if st == nil {
		return
	}
	if st.Truncated {
		s.logf("clam: journal: torn tail truncated on open (crash mid-write); recovered to last complete record")
	}

	// Sessions first: handles and subscriptions hang off them. Each comes
	// back parked with its token, epoch fence and receive mark intact,
	// its resume window restarted.
	for _, id := range sortedIDs(st.Sessions) {
		ss := st.Sessions[id]
		sess := newParkedSession(s, id, ss)
		s.mu.Lock()
		if s.closed || s.sessions[id] != nil {
			s.mu.Unlock()
			continue
		}
		s.sessions[id] = sess
		s.mu.Unlock()
		sess.startHeartbeat()
		s.recov.sessions.Add(1)
	}

	// Handles: re-bind each journaled (id, tag) capability to a live
	// object, preserving the pair a client may still hold. A handle bound
	// to a well-known name re-binds to the re-registered named object; an
	// anonymous one is re-instantiated from its journaled class identity.
	nameByID := make(map[uint64]string, len(st.Names))
	for name, id := range st.Names {
		nameByID[id] = name
	}
	for _, id := range sortedIDs(st.Handles) {
		hs := st.Handles[id]
		var obj any
		var classID, version uint32
		if name, named := nameByID[id]; named {
			o, ok := s.Named(name)
			if !ok {
				s.logf("clam: journal: handle %d was named %q, which is not re-registered; skipping", id, name)
				continue
			}
			loaded, err := s.loader.ByType(reflect.TypeOf(o))
			if err != nil {
				s.logf("clam: journal: named object %q has no loaded class: %v; skipping handle %d", name, err, id)
				continue
			}
			obj, classID, version = o, loaded.ID, loaded.Version
		} else {
			loaded, err := s.LoadExact(hs.Class, hs.Version)
			if err != nil {
				s.logf("clam: journal: class %s v%d for handle %d not loadable: %v; skipping", hs.Class, hs.Version, id, err)
				continue
			}
			env := &Env{Server: s, SessionID: hs.Session}
			gerr := dynload.Guard(func() error {
				var nerr error
				obj, nerr = loaded.New(env)
				return nerr
			})
			if gerr != nil {
				s.logf("clam: journal: re-instantiating %s for handle %d: %v; skipping", hs.Class, id, gerr)
				continue
			}
			classID, version = loaded.ID, loaded.Version
		}
		s.handles.Restore(handle.Handle{ID: handle.ID(id), Tag: handle.Tag(hs.Tag)}, classID, version, obj)
		s.recov.handles.Add(1)
	}

	// Multicast subscriptions: the func type comes from the re-registered
	// topic's prototype, the caller is the recovered parked session, and
	// Restore preserves the subscription id the client holds.
	for _, id := range sortedIDs(st.Subs) {
		sub := st.Subs[id]
		sess := s.sessionByID(sub.Session)
		if sess == nil {
			s.logf("clam: journal: subscription %d belongs to unrecovered session %d; skipping", id, sub.Session)
			continue
		}
		if err := s.fan.restoreSub(sub.Topic, sub.ID, sub.Key, sub.ProcID, sess); err != nil {
			s.logf("clam: journal: restoring subscription %d: %v; skipping", id, err)
			continue
		}
		s.recov.subs.Add(1)
	}

	// Point-to-point RUC bindings are recorded but not rebuilt: the
	// procedure's Go func type does not survive the process, so only the
	// id floor is restored. The durable fan-out path is the multicast
	// table above; a resumed client re-passes procedure pointers on its
	// next call that carries one (DESIGN.md §6.5).
	s.recov.rucs.Store(uint64(len(st.RUCs)))
	if n := len(st.RUCs); n > 0 {
		s.logf("clam: journal: %d point-to-point RUC bindings not recoverable (procedure types die with the process)", n)
	}

	if s.recov.sessions.Load()+s.recov.handles.Load()+s.recov.subs.Load() > 0 {
		s.logf("clam: journal: recovered %d parked sessions, %d handles, %d subscriptions; resume window %v",
			s.recov.sessions.Load(), s.recov.handles.Load(), s.recov.subs.Load(), s.resumeWindow)
	}
}

func sortedIDs[V any](m map[uint64]*V) []uint64 {
	out := make([]uint64, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// newParkedSession rebuilds a journaled session as if its link had just
// died: parked, link down, resume window running. No connection exists
// yet — the client's MsgResume installs one, through the same
// resumeRPC/resumeUpcall path a live park uses.
func newParkedSession(srv *Server, id uint64, ss *journal.SessionState) *session {
	sess := &session{
		id:        id,
		srv:       srv,
		upSlots:   make(chan struct{}, srv.maxClientUpcalls),
		execItems: make(map[*dispatchItem]struct{}),
	}
	sess.token = ss.Token
	sess.epoch = ss.Epoch
	sess.recvSeq.Store(ss.RecvSeq)
	sess.markHW = ss.RecvSeq
	e := &sess.endpoint
	e.reg = srv.reg
	e.mkCtx = sess.ctx
	e.callTimeout = srv.upcallTimeout
	e.hbInterval = srv.hbInterval
	e.hbWindow = srv.hbWindow
	e.link = &srv.metrics.link
	e.closedCh = make(chan struct{})
	e.logf = srv.logf
	e.lastRPC.Store(time.Now().UnixNano())
	sess.relay = &relayCaller{sess: sess}
	sess.parked = true
	sess.linkDown.Store(true)
	sess.parkTimer = time.AfterFunc(srv.resumeWindow, sess.expireIfParked)
	return sess
}

// --- durable append hooks ----------------------------------------------------

// journalGrant makes a new session's resume token durable before the
// hello reply carries it to the client, so any token a client holds is
// one a restarted server recognizes.
func (s *Server) journalGrant(sess *session) {
	if s.journal == nil || sess.token == 0 {
		return
	}
	if err := s.journal.Grant(sess.id, sess.token); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("clam: journal: recording grant for session %d: %v", sess.id, err)
	}
}

// journalEpoch makes a successful resume's new fence durable before the
// resume reply, so a crash after the reply cannot roll the fence back
// and admit a stale link.
func (s *Server) journalEpoch(sess *session, epoch uint32) {
	if s.journal == nil {
		return
	}
	if err := s.journal.EpochBump(sess.id, epoch); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("clam: journal: recording epoch %d for session %d: %v", epoch, sess.id, err)
	}
}

// journalEndSession records a session's definitive end (eviction, expiry,
// goodbye), so recovery does not resurrect it.
func (s *Server) journalEndSession(sess *session) {
	if s.journal == nil || sess.token == 0 {
		return
	}
	if err := s.journal.EndSession(sess.id); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("clam: journal: recording end of session %d: %v", sess.id, err)
	}
}

// putHandle is the journaling mint wrapper every non-proxy handle mint
// goes through: Put, and — when the handle is newly minted — a durable
// record of the (id, tag) capability and its class identity. An object
// that is also published under a well-known name gets a name-binding
// record too, so recovery re-binds the capability to the re-registered
// object rather than instantiating a stranger of the same class.
// (Proxy handles for a lower server's objects are deliberately not
// journaled: their *Remote rebuilds through the forwarding layer's own
// resurrect path, not from this server's log.)
func (s *Server) putHandle(obj any, loaded *dynload.Loaded, sessID uint64) (handle.Handle, error) {
	h, isNew, err := s.handles.PutNew(obj, loaded.ID, loaded.Version)
	if err != nil || !isNew || s.journal == nil {
		return h, err
	}
	if jerr := s.journal.Mint(uint64(h.ID), uint64(h.Tag), loaded.Name, loaded.Version, sessID); jerr != nil && !errors.Is(jerr, journal.ErrClosed) {
		s.logf("clam: journal: recording mint of %v: %v", h, jerr)
	}
	if name := s.nameOf(obj); name != "" {
		if jerr := s.journal.BindName(name, uint64(h.ID)); jerr != nil && !errors.Is(jerr, journal.ErrClosed) {
			s.logf("clam: journal: recording name %q for %v: %v", name, h, jerr)
		}
	}
	return h, nil
}

// nameOf reverse-resolves obj through the named-instance map (tiny: a
// handful of bootstrap objects), covering the CreateInstance-then-
// SetNamed order; SetNamed itself covers the other order.
func (s *Server) nameOf(obj any) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	for name, o := range s.named {
		if o == obj {
			return name
		}
	}
	return ""
}

// revokeHandleObj is RevokeObj with a durable record, so a revoked
// capability stays revoked across a restart.
func (s *Server) revokeHandleObj(obj any) bool {
	h, ok := s.handles.Lookup(obj)
	if !ok {
		return false
	}
	removed := s.handles.RevokeObj(obj)
	if removed && s.journal != nil {
		if err := s.journal.Revoke(uint64(h.ID)); err != nil && !errors.Is(err, journal.ErrClosed) {
			s.logf("clam: journal: recording revocation of %v: %v", h, err)
		}
	}
	return removed
}

// journalSubscribe / journalUnsubscribe record multicast registrations.
func (s *Server) journalSubscribe(id, key uint64, topic string, procID, sessID uint64) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Subscribe(id, key, topic, procID, sessID); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("clam: journal: recording subscription %d on %q: %v", id, topic, err)
	}
}

func (s *Server) journalUnsubscribe(topic string, key, id uint64) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Unsubscribe(topic, key, id); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("clam: journal: recording unsubscribe %d on %q: %v", id, topic, err)
	}
}

// journalBindRUC records a point-to-point procedure binding (reported,
// not rebuilt, at recovery — see recoverFromJournal).
func (s *Server) journalBindRUC(id, procID, sessID uint64) {
	if s.journal == nil {
		return
	}
	if err := s.journal.BindRUC(id, procID, sessID); err != nil && !errors.Is(err, journal.ErrClosed) {
		s.logf("clam: journal: recording RUC binding %d: %v", id, err)
	}
}

// --- receive marks -----------------------------------------------------------

// noteExecuted records that numbered frame seq of this session finished
// executing. Marks are written strictly after execution — a
// pre-execution mark could declare a frame done that a crash then loses,
// silently violating at-most-once from the client's point of view — and
// only the contiguous high-water mark is journaled, because the
// per-object executor completes frames out of order and a mark must mean
// "everything at or below executed". The journal coalesces marks
// per-session into its group commit, so this is a mutex and a map write
// on the hot path, never a disk wait.
func (sess *session) noteExecuted(seq uint64) {
	j := sess.srv.journal
	if j == nil || seq == 0 {
		return
	}
	sess.markMu.Lock()
	switch {
	case seq <= sess.markHW:
		// Duplicate completion (replayed frame): nothing to advance.
	case seq == sess.markHW+1:
		sess.markHW = seq
		for {
			if _, ok := sess.markAbove[sess.markHW+1]; !ok {
				break
			}
			delete(sess.markAbove, sess.markHW+1)
			sess.markHW++
		}
		j.Mark(sess.id, sess.markHW)
	default:
		if sess.markAbove == nil {
			sess.markAbove = make(map[uint64]struct{})
		}
		sess.markAbove[seq] = struct{}{}
	}
	sess.markMu.Unlock()
}

// restoreSub re-installs a journaled multicast subscription under its
// original id: the delivery state is fresh (queued events did not
// survive the crash — at-most-once, not at-least-once), the func type
// re-derives from the re-registered topic's prototype, and the caller is
// the recovered parked session, whose drain stands down until resume.
func (f *fanoutState) restoreSub(topic string, id, key, procID uint64, caller ruc.Caller) error {
	t := f.topic(topic)
	if t == nil {
		return fmt.Errorf("clam: topic %q not re-registered", topic)
	}
	f.mu.Lock()
	closed := f.closed
	f.mu.Unlock()
	if closed {
		return errors.New("clam: server closed")
	}
	sub := &ruc.Sub{ID: id, Key: key, Topic: topic, ProcID: procID, FuncType: t.ft, Caller: caller}
	fs := &fanSub{top: t, sub: sub}
	fs.cond = sync.NewCond(&fs.mu)
	sub.State = fs
	f.subs.Restore(sub)
	return nil
}

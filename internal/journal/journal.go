// Package journal is the control plane's always-on structured event
// journal: the in-memory view of the transition log. Every state transition
// the placement service performs — deploy admitted or rejected, release,
// churn event applied, per-deployment repair outcome, rebalance move, park
// and requeue, each two-phase-commit phase, shard reconfiguration — is
// described once, as a typed wal.Op inside the wal.Record its lock epoch
// closes. Append takes each closed record whole, hands it to the
// write-ahead log when the server runs with -data, and projects its ops, in
// order, onto the Event wire shape, stamped with a monotonic sequence
// number, the time since the journal was opened, the acting layer, and the
// deployment/tenant/shard it concerns. The journal therefore lists
// transitions in the log's order and never holds a second account of them;
// the WAL owns durability and recovery, the journal observability.
//
// The journal is a bounded in-memory ring: when full, the oldest events are
// dropped (and counted) so the hot path never blocks or allocates beyond
// the preallocated ring. A per-deployment secondary index keeps Timeline —
// the full retained causal history of one deployment — O(events of that
// deployment), and Since supports incremental tailing by sequence number
// (GET /v1/journal?since=N).
//
// All methods are safe for concurrent use, and every read is a no-op on a
// nil *Journal, so code paths that run without a journal (benchmarks,
// standalone fleets) pay only a nil check.
package journal

import (
	"fmt"
	"sync"
	"time"

	"elpc/internal/telemetry"
	"elpc/internal/wal"
)

// DefaultCapacity bounds the ring when New is given a non-positive size.
const DefaultCapacity = 4096

// Actor layers stamped on events: the coordinator's scope (wal.ScopeCross)
// acts as the coordinator, churn kinds as churn, service kinds as service,
// and every other op as the fleet.
const (
	ActorFleet       = "fleet"
	ActorCoordinator = "coordinator"
	ActorChurn       = "churn"
	ActorService     = "service"
)

// Event is one recorded state transition.
type Event struct {
	// Seq is the journal-assigned sequence number (monotonic from 1, never
	// reused; gaps never occur — dropped events are dropped from the ring,
	// not from the numbering).
	Seq uint64 `json:"seq"`
	// TimeMs is the monotonic time the transition's record was appended, in
	// milliseconds since the journal was opened.
	TimeMs float64 `json:"t_ms"`
	// Kind types the transition; Actor names the layer that performed it.
	Kind  wal.Kind `json:"kind"`
	Actor string   `json:"actor"`
	// Deployment / Tenant / Shard identify what the transition concerns
	// (empty when not applicable).
	Deployment string `json:"deployment,omitempty"`
	Tenant     string `json:"tenant,omitempty"`
	Shard      string `json:"shard,omitempty"`
	// Detail is a human-readable amplification (rejection reason, move
	// gain, churn event rendering).
	Detail string `json:"detail,omitempty"`
	// Mapping / DelayMs / RateFPS snapshot the placement the transition
	// produced, when it produced one (admissions, migrations, moves) — the
	// fields timeline replay and TestTimelineCausality rest on.
	Mapping string  `json:"mapping,omitempty"`
	DelayMs float64 `json:"delay_ms,omitempty"`
	RateFPS float64 `json:"rate_fps,omitempty"`
	// Payload carries structured per-kind data (the churn batch summary).
	Payload any `json:"payload,omitempty"`
}

// Stats is a point-in-time snapshot of the journal's gauges.
type Stats struct {
	// Depth is the number of events currently retained; Capacity the ring
	// size.
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	// LastSeq is the highest sequence number assigned (0 before the first
	// append); Dropped counts events evicted by the bounded ring.
	LastSeq uint64 `json:"last_seq"`
	Dropped uint64 `json:"dropped"`
}

// Journal records into the process-global metrics registry as well, so the
// bounded ring's loss is observable: the counters are durable even after
// their events are dropped.
var (
	eventsTotal = telemetry.Default().Counter(
		"elpc_journal_events_total", "state-transition events appended to the journal")
	droppedTotal = telemetry.Default().Counter(
		"elpc_journal_dropped_total", "journal events evicted by the bounded ring")
)

// Journal is the bounded, race-safe event ring. The zero value is not
// usable; build one with New. A nil *Journal is a valid no-op recorder.
type Journal struct {
	mu    sync.Mutex
	start time.Time
	// ring grows geometrically up to cap as events arrive, so an idle or
	// lightly-used journal costs a few events of memory, not capacity's
	// worth. Growth happens only before the first eviction, when head is
	// still 0, so it never has to re-linearize a wrapped ring.
	ring []Event
	cap  int    // retention bound ring grows toward
	head int    // ring position of the oldest retained event
	n    int    // retained count
	next uint64 // next sequence number to assign (starts at 1)
	drop uint64
	// byDep maps a deployment ID to its retained events' sequence numbers in
	// append order. Eviction pops from the front of the evicted event's
	// slice, keeping index maintenance O(1) per append.
	byDep map[string][]uint64
}

// New builds an empty journal retaining at most capacity events
// (non-positive selects DefaultCapacity).
func New(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	first := 64
	if first > capacity {
		first = capacity
	}
	return &Journal{
		start: time.Now(),
		ring:  make([]Event, first),
		cap:   capacity,
		next:  1,
		byDep: make(map[string][]uint64),
	}
}

// Append takes one closed transition record. When l is non-nil it first
// appends rec to l, under the journal's lock, so the journal lists
// transitions in exactly the log's order; it then projects rec's ops, in
// order, onto the ring, all stamped with the append time. It returns l's
// sequence number for rec (to pass to l.Commit), or 0 without a log. A nil
// journal only forwards rec to l.
func (j *Journal) Append(rec *wal.Record, l *wal.Log) uint64 {
	if j == nil {
		if l == nil {
			return 0
		}
		return l.Append(rec)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var lsn uint64
	if l != nil {
		lsn = l.Append(rec)
	}
	now := float64(time.Since(j.start)) / float64(time.Millisecond)
	for i := range rec.Ops {
		op := &rec.Ops[i]
		ev := project(rec.Scope, op)
		ev.TimeMs = now
		switch {
		case op.Kind == wal.ChurnApplied:
			for _, ce := range op.Churn {
				ev.Detail = ce.String()
				j.pushLocked(ev)
			}
		case op.Deploy != nil && op.Deploy.RequeueOf != "":
			j.pushLocked(ev)
			j.pushLocked(Event{
				TimeMs: now, Kind: wal.Requeued, Actor: ActorChurn,
				Deployment: ev.Deployment, Tenant: ev.Tenant,
				Detail: "re-admitted after parking as " + op.Deploy.RequeueOf,
			})
		default:
			j.pushLocked(ev)
		}
	}
	return lsn
}

// project renders one op of a record in the given scope as its event (the
// per-event fan-out of churn ops and the requeue event are Append's). The
// actor and shard come from the scope and the kind; identity, scores and
// detail come from the op's payload, or from its note fields when it has
// none.
func project(scope string, op *wal.Op) Event {
	ev := Event{
		Kind: op.Kind, Actor: ActorFleet, Shard: scope,
		Deployment: op.ID, Tenant: op.Tenant, Detail: op.Detail,
		Mapping: op.Mapping, DelayMs: op.DelayMs, RateFPS: op.RateFPS,
	}
	switch {
	case op.Kind == wal.ChurnApplied || op.Kind == wal.ChurnBatch:
		ev.Actor, ev.Shard = ActorChurn, ""
	case op.Kind == wal.ShardReconfig || op.Kind == wal.AdmissionShed:
		ev.Actor, ev.Shard = ActorService, ""
	case scope == wal.ScopeCross:
		ev.Actor = ActorCoordinator
	case scope == "":
		ev.Shard = "main"
	}
	if d := op.Deploy; d != nil {
		ev.Deployment, ev.Tenant = d.ID, d.Tenant
		ev.Mapping, ev.DelayMs, ev.RateFPS = d.Mapping, d.DelayMs, d.RateFPS
		if op.Kind == wal.DeployAdmitted {
			ev.Detail = fmt.Sprintf("reserved %.3f fps", d.ReservedFPS)
		}
	}
	if op.Remove != "" {
		ev.Deployment = op.Remove
	}
	if p := op.Park; p != nil {
		ev.Tenant, ev.Detail = p.Tenant, p.Reason
	}
	if sum := op.Summary; sum != nil {
		ev.Detail = fmt.Sprintf("batch %d: %d events, %d affected, %d displaced", sum.Seq, len(sum.Events), sum.Affected, sum.Displaced)
		ev.Payload = *sum
	}
	return ev
}

// pushLocked stamps ev with the next sequence number and records it,
// evicting the oldest event when the ring is full. Caller holds j.mu.
func (j *Journal) pushLocked(ev Event) {
	ev.Seq = j.next
	j.next++

	if j.n == len(j.ring) && len(j.ring) < j.cap {
		// Grow toward the retention bound. head is 0 here: eviction (the
		// only thing that moves head) cannot have started below capacity.
		grown := len(j.ring) * 2
		if grown > j.cap {
			grown = j.cap
		}
		ring := make([]Event, grown)
		copy(ring, j.ring)
		j.ring = ring
	}
	if j.n == len(j.ring) {
		// Evict the oldest: pop its seq from the front of its deployment's
		// index slice (it is necessarily the front — the index is in append
		// order and eviction is FIFO).
		old := &j.ring[j.head]
		if old.Deployment != "" {
			seqs := j.byDep[old.Deployment]
			if len(seqs) > 0 && seqs[0] == old.Seq {
				seqs = seqs[1:]
			}
			if len(seqs) == 0 {
				delete(j.byDep, old.Deployment)
			} else {
				j.byDep[old.Deployment] = seqs
			}
		}
		old.Payload = nil // release references early
		j.head = (j.head + 1) % len(j.ring)
		j.n--
		j.drop++
		droppedTotal.Inc()
	}
	j.ring[(j.head+j.n)%len(j.ring)] = ev
	j.n++
	if ev.Deployment != "" {
		j.byDep[ev.Deployment] = append(j.byDep[ev.Deployment], ev.Seq)
	}
	eventsTotal.Inc()
}

// posLocked returns the ring position of the event with sequence number
// seq, which must be retained. Caller holds j.mu.
func (j *Journal) posLocked(seq uint64) int {
	firstSeq := j.next - uint64(j.n)
	return (j.head + int(seq-firstSeq)) % len(j.ring)
}

// Since returns up to limit retained events with sequence numbers strictly
// greater than seq, oldest first (limit <= 0 returns all). Events already
// evicted are silently absent — callers tailing incrementally detect loss
// by comparing the first returned Seq with their cursor + 1, or via
// Stats().Dropped.
func (j *Journal) Since(seq uint64, limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq >= j.next-1 {
		return nil // nothing newer than the cursor; seq+1 below cannot wrap
	}
	from := max(j.next-uint64(j.n), seq+1)
	count := int(j.next - from)
	if limit > 0 && count > limit {
		count = limit
	}
	out := make([]Event, 0, count)
	for i := 0; i < count; i++ {
		out = append(out, j.ring[j.posLocked(from+uint64(i))])
	}
	return out
}

// Tail returns the most recent limit events, oldest first (limit <= 0
// returns all retained).
func (j *Journal) Tail(limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	last := j.next - 1
	j.mu.Unlock()
	if limit > 0 && uint64(limit) <= last {
		return j.Since(last-uint64(limit), limit)
	}
	return j.Since(0, 0)
}

// Timeline returns every retained event concerning the given deployment,
// oldest first — the deployment's causal history.
func (j *Journal) Timeline(deployment string) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	seqs := j.byDep[deployment]
	out := make([]Event, 0, len(seqs))
	for _, s := range seqs {
		out = append(out, j.ring[j.posLocked(s)])
	}
	return out
}

// Filter returns up to limit retained events of the given kind, oldest
// first (limit <= 0 returns all matches). The reconciler's log view uses it
// to reread its batch summaries from the shared journal.
func (j *Journal) Filter(kind wal.Kind, limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []Event
	for i := 0; i < j.n; i++ {
		ev := j.ring[(j.head+i)%len(j.ring)]
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// Stats snapshots the journal gauges (zero value on a nil journal).
func (j *Journal) Stats() Stats {
	if j == nil {
		return Stats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Depth:    j.n,
		Capacity: j.cap,
		LastSeq:  j.next - 1,
		Dropped:  j.drop,
	}
}

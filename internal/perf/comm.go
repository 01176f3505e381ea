package perf

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HistBuckets is the bucket count of the log₂ latency histogram:
// bucket i counts observations in [2^(i-1), 2^i) microseconds (bucket 0
// is < 1 µs), so the range spans sub-microsecond channel hops to ~4 s
// network stalls.
const HistBuckets = 23

// Histogram is a fixed log₂-bucketed latency histogram. It is not
// safe for concurrent use on its own; LinkStat guards it.
type Histogram struct {
	buckets [HistBuckets]int64
	count   int64
	sum     time.Duration
	max     time.Duration
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	b := bits.Len64(uint64(d.Microseconds()))
	if b >= HistBuckets {
		b = HistBuckets - 1
	}
	h.buckets[b]++
	h.count++
	h.sum += d
	if d > h.max {
		h.max = d
	}
}

// Mean returns the mean observed latency (0 when empty).
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return h.sum / time.Duration(h.count)
}

// Quantile returns an upper bound on the q-th quantile (q in [0,1]):
// the upper edge of the bucket containing the q·count-th observation.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := int64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen > target {
			return time.Duration(uint64(1)<<uint(i)) * time.Microsecond
		}
	}
	return h.max
}

// HistSnapshot is a value copy of a histogram for reports and JSON.
type HistSnapshot struct {
	Count      int64   `json:"count"`
	MeanMicros float64 `json:"mean_us"`
	P50Micros  float64 `json:"p50_us"`
	P99Micros  float64 `json:"p99_us"`
	MaxMicros  float64 `json:"max_us"`
	Buckets    []int64 `json:"buckets,omitempty"` // trailing zero buckets trimmed
	BucketUnit string  `json:"bucket_unit,omitempty"`
}

// Snapshot returns the histogram's value form. Empty histograms return
// the zero snapshot (Count 0, no buckets).
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:      h.count,
		MeanMicros: float64(h.Mean().Nanoseconds()) / 1e3,
		P50Micros:  float64(h.Quantile(0.50).Nanoseconds()) / 1e3,
		P99Micros:  float64(h.Quantile(0.99).Nanoseconds()) / 1e3,
		MaxMicros:  float64(h.max.Nanoseconds()) / 1e3,
	}
	last := -1
	for i, n := range h.buckets {
		if n != 0 {
			last = i
		}
	}
	if last >= 0 {
		s.Buckets = append([]int64(nil), h.buckets[:last+1]...)
		s.BucketUnit = "log2_us"
	}
	return s
}

// CommStats aggregates per-link communication counters for one rank's
// transport endpoint: bytes and message counts in both directions plus
// a round-trip latency histogram per peer. All methods are safe for
// concurrent use (link I/O goroutines update while reporters snapshot).
type CommStats struct {
	rank  int
	mu    sync.Mutex
	links map[int]*LinkStat

	// Comm wait: total time the rank blocked in mp's Recv (collectives
	// included; internal/mp's clock policy). takenWaitNs is the
	// watermark of the single consumer (the step loop) that drains
	// deltas into its Breakdown.
	waitNs      atomic.Int64
	takenWaitNs int64
}

// NewCommStats returns an empty counter set owned by the given rank.
func NewCommStats(rank int) *CommStats {
	return &CommStats{rank: rank, links: make(map[int]*LinkStat)}
}

// AddWait records time a caller spent blocked in a receive.
func (s *CommStats) AddWait(d time.Duration) {
	if d > 0 {
		s.waitNs.Add(int64(d))
	}
}

// TakeWait returns the wait accumulated since the previous call — a
// single-consumer drain used by the step loop to fold per-step deltas
// into its Breakdown.
func (s *CommStats) TakeWait() time.Duration {
	w := s.waitNs.Load()
	d := time.Duration(w - s.takenWaitNs)
	s.takenWaitNs = w
	return d
}

// Link returns the counter set of the link toward peer, creating it on
// first use.
func (s *CommStats) Link(peer int) *LinkStat {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.links[peer]
	if l == nil {
		l = &LinkStat{src: s.rank, peer: peer}
		s.links[peer] = l
	}
	return l
}

// Snapshot returns value copies of every link's counters, sorted by
// peer rank. Links with no traffic and no latency samples are omitted.
func (s *CommStats) Snapshot() []CommLinkStat {
	s.mu.Lock()
	links := make([]*LinkStat, 0, len(s.links))
	for _, l := range s.links {
		links = append(links, l)
	}
	s.mu.Unlock()
	sort.Slice(links, func(a, b int) bool { return links[a].peer < links[b].peer })
	out := make([]CommLinkStat, 0, len(links))
	for _, l := range links {
		st := l.Snapshot()
		if st.MsgsSent == 0 && st.MsgsRecv == 0 && st.RTT.Count == 0 {
			continue
		}
		out = append(out, st)
	}
	return out
}

// LinkStat is one directed peer link's counter set.
type LinkStat struct {
	src, peer int

	// Message counters: atomics, so the per-message path takes no lock.
	bytesSent atomic.Int64
	msgsSent  atomic.Int64
	bytesRecv atomic.Int64
	msgsRecv  atomic.Int64
	expired   atomic.Int64 // in-process receives whose wait.Window ran out

	mu  sync.Mutex // guards the rest
	rtt Histogram

	flushes int64 // connection writes of a network link (zero in-process)
}

// AddSent records one sent message of the given payload size.
func (l *LinkStat) AddSent(bytes int) {
	l.bytesSent.Add(int64(bytes))
	l.msgsSent.Add(1)
}

// AddRecv records one received message of the given payload size.
func (l *LinkStat) AddRecv(bytes int) {
	l.bytesRecv.Add(int64(bytes))
	l.msgsRecv.Add(1)
}

// AddSpinExpired records one receive whose yield window expired.
func (l *LinkStat) AddSpinExpired() { l.expired.Add(1) }

// AddFlush records one write of buffered frames to the connection.
func (l *LinkStat) AddFlush() {
	l.mu.Lock()
	l.flushes++
	l.mu.Unlock()
}

// ObserveRTT records one round-trip latency sample (heartbeat echo).
func (l *LinkStat) ObserveRTT(d time.Duration) {
	l.mu.Lock()
	l.rtt.Observe(d)
	l.mu.Unlock()
}

// Snapshot returns the link's value form.
func (l *LinkStat) Snapshot() CommLinkStat {
	l.mu.Lock()
	defer l.mu.Unlock()
	return CommLinkStat{
		Src:          l.src,
		Peer:         l.peer,
		BytesSent:    l.bytesSent.Load(),
		MsgsSent:     l.msgsSent.Load(),
		BytesRecv:    l.bytesRecv.Load(),
		MsgsRecv:     l.msgsRecv.Load(),
		RTT:          l.rtt.Snapshot(),
		Flushes:      l.flushes,
		SpinsExpired: l.expired.Load(),
	}
}

// CommLinkStat is the value form of one link's counters — the record
// reports, BENCH files and /metrics expose.
type CommLinkStat struct {
	Src       int          `json:"src"`
	Peer      int          `json:"peer"`
	BytesSent int64        `json:"bytes_sent"`
	MsgsSent  int64        `json:"msgs_sent"`
	BytesRecv int64        `json:"bytes_recv"`
	MsgsRecv  int64        `json:"msgs_recv"`
	RTT       HistSnapshot `json:"rtt"`
	Flushes   int64        `json:"flushes"` // network connection writes; msgs_sent/flushes = frames per syscall
	// In-process receives that yielded a whole wait.Window, then parked.
	SpinsExpired int64 `json:"spins_expired"`
}

// Label returns the link's "src->peer" form used as a metrics label.
func (s CommLinkStat) Label() string { return fmt.Sprintf("%d->%d", s.Src, s.Peer) }

// CommReport formats per-link counters as aligned text rows, one per
// link, with RTT columns when the link has latency samples. The last
// two columns count a network link's connection writes and an
// in-process link's receives whose yield window expired.
func CommReport(links []CommLinkStat) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-8s %12s %8s %12s %8s %10s %10s %8s %8s\n",
		"link", "sent B", "msgs", "recv B", "msgs", "rtt p50", "rtt p99", "flushes", "expired")
	for _, l := range links {
		p50, p99 := "", ""
		if l.RTT.Count > 0 {
			p50 = fmt.Sprintf("%.0fµs", l.RTT.P50Micros)
			p99 = fmt.Sprintf("%.0fµs", l.RTT.P99Micros)
		}
		fmt.Fprintf(&sb, "%-8s %12d %8d %12d %8d %10s %10s %8d %8d\n",
			l.Label(), l.BytesSent, l.MsgsSent, l.BytesRecv, l.MsgsRecv, p50, p99, l.Flushes, l.SpinsExpired)
	}
	return sb.String()
}

// Package output writes run artifacts: JSON run summaries for the
// experiment harnesses and self-describing binary field/moment
// snapshots (with a matching reader), the role VPIC's dump machinery
// plays for its post-processing chain.
package output

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// Summary is the JSON run record the command-line tools emit.
type Summary struct {
	Deck      string             `json:"deck"`
	Steps     int                `json:"steps"`
	Time      float64            `json:"time"`
	Particles int                `json:"particles"`
	Ranks     int                `json:"ranks"`
	WallClock float64            `json:"wall_clock_s"`
	Rates     map[string]float64 `json:"rates,omitempty"`
	Energy    map[string]float64 `json:"energy,omitempty"`
	Notes     map[string]float64 `json:"notes,omitempty"`
	Written   time.Time          `json:"written"`
}

// WriteSummary emits the summary as indented JSON.
func WriteSummary(w io.Writer, s Summary) error {
	s.Written = time.Now().UTC()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSummary parses a summary written by WriteSummary.
func ReadSummary(r io.Reader) (Summary, error) {
	var s Summary
	err := json.NewDecoder(r).Decode(&s)
	return s, err
}

// BenchSection is one kernel section's share of a benchmark run.
type BenchSection struct {
	Name       string  `json:"name"`
	Seconds    float64 `json:"seconds"`
	Share      float64 `json:"share"`
	BytesMoved int64   `json:"bytes_moved,omitempty"`
	EffGBs     float64 `json:"eff_gb_s,omitempty"`
}

// CommClassRecord is one exchange class's traffic baseline in a bench
// record: total sent bytes/messages over the run and the bytes-per-step
// rate kernel and decomposition changes are compared against.
type CommClassRecord struct {
	Class        string  `json:"class"` // ghostE, ghostB, foldJ, ghostJ, foldScalar, ghostScalar, particles
	Bytes        int64   `json:"bytes"`
	Msgs         int64   `json:"msgs"`
	BytesPerStep float64 `json:"bytes_per_step"`
}

// CommLinkRecord is one rank-pair link's transport counters in a bench
// record; RTT quantiles are present only for network transports.
type CommLinkRecord struct {
	Link         string  `json:"link"` // "src->peer"
	BytesSent    int64   `json:"bytes_sent"`
	MsgsSent     int64   `json:"msgs_sent"`
	BytesRecv    int64   `json:"bytes_recv"`
	MsgsRecv     int64   `json:"msgs_recv"`
	RTTP50Micros float64 `json:"rtt_p50_us,omitempty"`
	RTTP99Micros float64 `json:"rtt_p99_us,omitempty"`
}

// BenchRecord is the machine-readable benchmark result the tools emit
// (BENCH_<date>.json): the headline rates plus the per-section timing
// and data-motion breakdown, so kernel changes leave a comparable
// perf trajectory in the repo.
type BenchRecord struct {
	Date      string `json:"date"` // YYYY-MM-DD
	Deck      string `json:"deck"`
	Steps     int    `json:"steps"`
	Particles int    `json:"particles"`
	Ranks     int    `json:"ranks"`
	Workers   int    `json:"workers"`
	// Kernel names the push kernel's span routine that produced the
	// record ("asm" or "go"); absent on records predating the switch.
	Kernel      string  `json:"kernel,omitempty"`
	Overlap     bool    `json:"overlap"`
	WallSeconds float64 `json:"wall_seconds"`
	MPartPerS   float64 `json:"mpart_per_s"`
	GFlopPerS   float64 `json:"gflop_per_s"`
	PushEffGBs  float64 `json:"push_eff_gb_s"` // effective push-section bandwidth
	// CommWaitSeconds is time ranks spent blocked on exchange requests;
	// CommOverlapSeconds is exchange flight time hidden behind compute
	// (not part of any section's wall time), summed over ranks.
	CommWaitSeconds    float64        `json:"comm_wait_seconds"`
	CommOverlapSeconds float64        `json:"comm_overlap_seconds"`
	Sections           []BenchSection `json:"sections"`
	// SortPasses breaks the sort section into its count / prefix-merge /
	// scatter passes, so the residual serial fraction of the sort is
	// visible once the push kernel is vectorized.
	SortPasses  *BenchSortPasses  `json:"sort_passes,omitempty"`
	CommTraffic []CommClassRecord `json:"comm_traffic,omitempty"` // sent bytes per exchange class
	CommLinks   []CommLinkRecord  `json:"comm_links,omitempty"`   // per rank-pair link counters
	// Multi-rank load-balance observability: max/mean per-rank push
	// seconds, the final per-rank particle counts, and the balance mode
	// the run used (off | online).
	ImbalanceRatio   float64   `json:"imbalance_ratio,omitempty"`
	PerRankParticles []int     `json:"per_rank_particles,omitempty"`
	Balance          string    `json:"balance,omitempty"`
	Written          time.Time `json:"written"`
}

// BenchSortPasses is the sort section's per-pass wall-time breakdown
// (summed over ranks and sorts; see internal/sort.Passes).
type BenchSortPasses struct {
	CountSeconds   float64 `json:"count_seconds"`
	MergeSeconds   float64 `json:"merge_seconds"`
	ScatterSeconds float64 `json:"scatter_seconds"`
	Sorts          int64   `json:"sorts"`
}

// WriteBench emits the record as indented JSON.
func WriteBench(w io.Writer, b BenchRecord) error {
	b.Written = time.Now().UTC()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadBench parses a record written by WriteBench.
func ReadBench(r io.Reader) (BenchRecord, error) {
	var b BenchRecord
	err := json.NewDecoder(r).Decode(&b)
	return b, err
}

// Snapshot is one named float32 array with its 3-D shape — a field
// component, charge density, or moment grid.
type Snapshot struct {
	Name       string
	NX, NY, NZ int // ghost-inclusive dims (strides)
	Data       []float32
}

const snapshotMagic = "GOVPIC-SNAP-1\n"

// WriteSnapshots streams the arrays in a self-describing little-endian
// binary container.
func WriteSnapshots(w io.Writer, snaps []Snapshot) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return err
	}
	var buf [8]byte
	wu64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, err := bw.Write(buf[:8])
		return err
	}
	if err := wu64(uint64(len(snaps))); err != nil {
		return err
	}
	for _, s := range snaps {
		if len(s.Data) != s.NX*s.NY*s.NZ {
			return fmt.Errorf("output: snapshot %q has %d values for %d×%d×%d",
				s.Name, len(s.Data), s.NX, s.NY, s.NZ)
		}
		if err := wu64(uint64(len(s.Name))); err != nil {
			return err
		}
		if _, err := bw.WriteString(s.Name); err != nil {
			return err
		}
		for _, d := range []int{s.NX, s.NY, s.NZ} {
			if err := wu64(uint64(d)); err != nil {
				return err
			}
		}
		for _, v := range s.Data {
			binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
			if _, err := bw.Write(buf[:4]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadSnapshots parses a container written by WriteSnapshots.
func ReadSnapshots(r io.Reader) ([]Snapshot, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != snapshotMagic {
		return nil, fmt.Errorf("output: not a snapshot container")
	}
	var buf [8]byte
	ru64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, buf[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:8]), nil
	}
	n, err := ru64()
	if err != nil {
		return nil, err
	}
	if n > 1<<20 {
		return nil, fmt.Errorf("output: implausible snapshot count %d", n)
	}
	snaps := make([]Snapshot, 0, n)
	for i := uint64(0); i < n; i++ {
		nameLen, err := ru64()
		if err != nil {
			return nil, err
		}
		if nameLen > 4096 {
			return nil, fmt.Errorf("output: implausible name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return nil, err
		}
		var dims [3]int
		for d := range dims {
			v, err := ru64()
			if err != nil {
				return nil, err
			}
			if v == 0 || v > 1<<24 {
				return nil, fmt.Errorf("output: implausible dimension %d", v)
			}
			dims[d] = int(v)
		}
		data := make([]float32, dims[0]*dims[1]*dims[2])
		for j := range data {
			if _, err := io.ReadFull(br, buf[:4]); err != nil {
				return nil, err
			}
			data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[:4]))
		}
		snaps = append(snaps, Snapshot{Name: string(name), NX: dims[0], NY: dims[1], NZ: dims[2], Data: data})
	}
	return snaps, nil
}

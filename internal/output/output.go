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

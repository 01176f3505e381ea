// Package diag implements the measurement instruments of the
// reproduction: energy accounting, Poynting-flux reflectometry (the
// laser reflectivity diagnostic of the parameter study), particle
// distribution functions (the trapping diagnostic), field line-outs and
// spectra, and CSV emission.
package diag

import (
	"fmt"
	"io"
	"math"

	"govpic/internal/fft"
	"govpic/internal/field"
	"govpic/internal/grid"
	"govpic/internal/particle"
)

// EnergySample is one row of the energy history.
type EnergySample struct {
	Step      int
	Time      float64
	EField    float64
	BField    float64
	Kinetic   []float64 // per species
	Total     float64
	DivBError float64
}

// History accumulates energy samples.
type History struct {
	Samples []EnergySample
}

// Add appends a sample, computing the total.
func (h *History) Add(s EnergySample) {
	s.Total = s.EField + s.BField
	for _, k := range s.Kinetic {
		s.Total += k
	}
	h.Samples = append(h.Samples, s)
}

// RelativeDrift returns |total(last) − total(first)| / max(|total(first)|, floor).
func (h *History) RelativeDrift() float64 {
	if len(h.Samples) < 2 {
		return 0
	}
	first, last := h.Samples[0].Total, h.Samples[len(h.Samples)-1].Total
	den := math.Max(math.Abs(first), 1e-300)
	return math.Abs(last-first) / den
}

// PoyntingSplit decomposes the x-directed Poynting flux through the
// local plane of x-nodes ix into forward (+x) and backward (−x) going
// components, averaged over the plane:
//
//	S± = ¼·[(Ey ± cBz)² + (Ez ∓ cBy)²]
//
// For a pure vacuum plane wave moving in +x, S− vanishes and S+ equals
// the wave's intensity. B is averaged onto the E nodes to respect the
// Yee staggering.
func PoyntingSplit(f *field.Fields, ix int) (forward, backward float64) {
	g := f.G
	var fp, fm float64
	n := 0
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(ix, iy, iz)
			ey := float64(f.Ey[v])
			ez := float64(f.Ez[v])
			// Bz and By live at x = i+½; average the two x-neighbors onto
			// the node plane (transverse staggering is irrelevant for the
			// x-directed flux of quasi-plane waves).
			bz := 0.5 * float64(f.Bz[v]+f.Bz[v-1])
			by := 0.5 * float64(f.By[v]+f.By[v-1])
			// Forward wave: Ey = +cBz, Ez = −cBy.
			fp += 0.25 * ((ey+bz)*(ey+bz) + (ez-by)*(ez-by))
			fm += 0.25 * ((ey-bz)*(ey-bz) + (ez+by)*(ez+by))
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return fp / float64(n), fm / float64(n)
}

// Reflectometer time-averages forward and backward flux at a probe
// plane to measure laser reflectivity, the paper's headline physics
// observable.
type Reflectometer struct {
	IX int // local x-node index of the probe plane

	SumForward  float64
	SumBackward float64
	NSamples    int

	// Series optionally records the instantaneous values; BackField is
	// the signed backward-going field used for spectral analysis.
	Times     []float64
	Forward   []float64
	Backward  []float64
	BackField []float64
	Record    bool
}

// Sample accumulates one measurement at time t.
func (r *Reflectometer) Sample(f *field.Fields, t float64) {
	fw, bw := PoyntingSplit(f, r.IX)
	r.SumForward += fw
	r.SumBackward += bw
	r.NSamples++
	if r.Record {
		r.Times = append(r.Times, t)
		r.Forward = append(r.Forward, fw)
		r.Backward = append(r.Backward, bw)
		r.BackField = append(r.BackField, backwardField(f, r.IX))
	}
}

// backwardField returns the signed backward-going field component
// (Ey − cBz)/2 averaged over the probe plane: its time series carries
// the backscattered light's frequency.
func backwardField(f *field.Fields, ix int) float64 {
	g := f.G
	var s float64
	n := 0
	for iz := 1; iz <= g.NZ; iz++ {
		for iy := 1; iy <= g.NY; iy++ {
			v := g.Voxel(ix, iy, iz)
			bz := 0.5 * float64(f.Bz[v]+f.Bz[v-1])
			s += 0.5 * (float64(f.Ey[v]) - bz)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// DominantFrequency returns the angular frequency of the strongest
// non-DC component of the recorded backward field, from the recorded
// sample spacing. Requires Record and ≥16 samples; returns 0 otherwise.
func (r *Reflectometer) DominantFrequency() float64 {
	n := len(r.BackField)
	if n < 16 {
		return 0
	}
	dt := (r.Times[n-1] - r.Times[0]) / float64(n-1)
	k, _, err := fft.DominantMode(r.BackField)
	if err != nil || k == 0 {
		return 0
	}
	// The spectrum was zero-padded to the next power of two.
	np := fft.NextPow2(n)
	return 2 * math.Pi * float64(k) / (float64(np) * dt)
}

// Reflectivity returns the time-averaged backward/forward flux ratio.
func (r *Reflectometer) Reflectivity() float64 {
	if r.SumForward <= 0 {
		return 0
	}
	return r.SumBackward / r.SumForward
}

// Reset clears the accumulators but keeps the probe location.
func (r *Reflectometer) Reset() {
	r.SumForward, r.SumBackward, r.NSamples = 0, 0, 0
	r.Times, r.Forward, r.Backward, r.BackField = nil, nil, nil, nil
}

// Burstiness returns the coefficient of variation (σ/µ) of the recorded
// backward flux — the paper's reflectivity time histories are strongly
// bursty above the inflation threshold.
func (r *Reflectometer) Burstiness() float64 {
	if len(r.Backward) < 2 {
		return 0
	}
	var sum, sum2 float64
	for _, b := range r.Backward {
		sum += b
		sum2 += b * b
	}
	n := float64(len(r.Backward))
	mean := sum / n
	if mean <= 0 {
		return 0
	}
	varr := sum2/n - mean*mean
	if varr < 0 {
		varr = 0
	}
	return math.Sqrt(varr) / mean
}

// MaxWindowed returns the largest reflectivity seen over any sliding
// time window of the given length in the recorded series — the burst
// peak, which is what a bursty reflectivity history is characterized by.
// Requires Record; returns 0 with fewer than 2 samples.
func (r *Reflectometer) MaxWindowed(window float64) float64 {
	n := len(r.Times)
	if n < 2 {
		return 0
	}
	best := 0.0
	lo := 0
	var sumF, sumB float64
	for hi := 0; hi < n; hi++ {
		sumF += r.Forward[hi]
		sumB += r.Backward[hi]
		for r.Times[hi]-r.Times[lo] > window {
			sumF -= r.Forward[lo]
			sumB -= r.Backward[lo]
			lo++
		}
		if sumF > 0 {
			if rr := sumB / sumF; rr > best {
				best = rr
			}
		}
	}
	return best
}

// DistUx histograms the x-momentum of particles whose global x position
// lies in [xmin, xmax), weighting by particle weight. Bins span
// [umin, umax) uniformly.
func DistUx(g *grid.Grid, buf *particle.Buffer, xmin, xmax, umin, umax float64, bins int) []float64 {
	h := make([]float64, bins)
	du := (umax - umin) / float64(bins)
	for i := 0; i < buf.N(); i++ {
		p := buf.At(i)
		x, _, _ := g.Position(int(p.Voxel), p.Dx, p.Dy, p.Dz)
		if x < xmin || x >= xmax {
			continue
		}
		b := int((float64(p.Ux) - umin) / du)
		if b >= 0 && b < bins {
			h[b] += float64(p.W)
		}
	}
	return h
}

// PlateauMetric quantifies distribution flattening near a phase velocity:
// it returns f(uphi)/f_fit(uphi), where f_fit is the Maxwellian that
// matches the histogram's bulk (|u| < uth·2). Trapping plateaus push the
// ratio far above 1.
func PlateauMetric(hist []float64, umin, umax, uth, uphi float64) float64 {
	bins := len(hist)
	du := (umax - umin) / float64(bins)
	// Fit amplitude from the bulk: sum over |u|<2uth of hist vs model.
	var sumH, sumM float64
	for b := 0; b < bins; b++ {
		u := umin + (float64(b)+0.5)*du
		if math.Abs(u) < 2*uth {
			sumH += hist[b]
			sumM += math.Exp(-u * u / (2 * uth * uth))
		}
	}
	if sumM == 0 || sumH == 0 {
		return 0
	}
	amp := sumH / sumM
	b := int((uphi - umin) / du)
	if b < 0 || b >= bins {
		return 0
	}
	// Evaluate the Maxwellian at the bin center to match the histogram.
	uc := umin + (float64(b)+0.5)*du
	model := amp * math.Exp(-uc*uc/(2*uth*uth))
	if model <= 0 {
		return math.Inf(1)
	}
	return hist[b] / model
}

// LineOutEy extracts Ey along x at transverse indices (iy,iz).
func LineOutEy(f *field.Fields, iy, iz int) []float64 {
	return lineOut(f.G, f.Ey, iy, iz)
}

// LineOutEx extracts Ex along x at transverse indices (iy,iz) — the
// electrostatic (Langmuir) field of quasi-1D runs.
func LineOutEx(f *field.Fields, iy, iz int) []float64 {
	return lineOut(f.G, f.Ex, iy, iz)
}

func lineOut(g *grid.Grid, a []float32, iy, iz int) []float64 {
	out := make([]float64, g.NX)
	for ix := 1; ix <= g.NX; ix++ {
		out[ix-1] = float64(a[g.Voxel(ix, iy, iz)])
	}
	return out
}

// WriteCSV emits a simple CSV table.
func WriteCSV(w io.Writer, headers []string, rows [][]float64) error {
	for i, h := range headers {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, h); err != nil {
			return err
		}
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	for _, row := range rows {
		for i, v := range row {
			sep := ","
			if i == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(w, "%s%g", sep, v); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
	}
	return nil
}

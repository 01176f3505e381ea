package domain

// CommClass labels one class of inter-rank traffic, derived from the
// message tag's phase base. The comm-traffic baseline in BENCH files
// and the vpic report break bytes down by these classes.
type CommClass int

const (
	ClassGhostE CommClass = iota
	ClassGhostB
	ClassFoldJ
	ClassFoldScalar
	ClassGhostScalar
	ClassParticles
	ClassRebalance
	NumCommClasses
)

var classNames = [NumCommClasses]string{
	"ghostE", "ghostB", "foldJ", "foldScalar", "ghostScalar", "particles", "rebalance",
}

func (c CommClass) String() string {
	if c < 0 || c >= NumCommClasses {
		return "unknown"
	}
	return classNames[c]
}

// classOf maps a message tag to its traffic class: each phase owns one
// 1<<10-wide tag window starting at tagGhostE.
func classOf(tag int) CommClass { return CommClass(tag>>10) - 1 }

// ClassStat is one traffic class's totals for one rank.
type ClassStat struct {
	Class string `json:"class"`
	Bytes int64  `json:"bytes"`
	Msgs  int64  `json:"msgs"`
}

// ClassTraffic returns this rank's sent traffic broken down by class,
// in class order, omitting classes with no traffic.
func (d *Domain) ClassTraffic() []ClassStat {
	out := make([]ClassStat, 0, NumCommClasses)
	for c := CommClass(0); c < NumCommClasses; c++ {
		if d.ClassMsgs[c] == 0 {
			continue
		}
		out = append(out, ClassStat{Class: c.String(), Bytes: d.ClassBytes[c], Msgs: d.ClassMsgs[c]})
	}
	return out
}

// countSend records one outgoing message in its class's counters.
func (d *Domain) countSend(tag int, bytes int) {
	c := classOf(tag)
	if c >= 0 && c < NumCommClasses {
		d.ClassBytes[c] += int64(bytes)
		d.ClassMsgs[c]++
	}
}

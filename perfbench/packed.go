package main

import (
	"strings"

	"repro"
)

// packed holds a stream's calls without a single pointer: names are
// ranges of one string, and each event's tasks and removal names are
// ranges of the tables beside it. The inputs of a run would otherwise be
// tens of thousands of small heap objects that every collection marks —
// a few milliseconds each time, charged to whichever timed call the
// collection lands in. Packed, they cost the collector nothing, so timed
// calls pay only for collecting the program's own garbage.
type packed struct {
	text   string
	events []packedEvent
	tasks  []packedTask
	names  []textRange
}

// textRange is [from, to) of packed.text.
type textRange [2]int32

type packedEvent struct {
	at           repro.Ticks
	kind         repro.WorkloadEventKind
	capacity     float64
	tasks, names [2]int32 // [from, to) of packed.tasks and packed.names
}

type packedTask struct {
	name    textRange
	c, t, d float64
	mode    repro.Mode
	channel int
}

func pack(evs []repro.WorkloadEvent) packed {
	var (
		p    packed
		text strings.Builder
	)
	name := func(s string) textRange {
		from := int32(text.Len())
		text.WriteString(s)
		return textRange{from, int32(text.Len())}
	}
	for _, ev := range evs {
		pe := packedEvent{at: ev.At, kind: ev.Kind, capacity: ev.Capacity}
		pe.tasks[0] = int32(len(p.tasks))
		for _, t := range ev.Tasks {
			p.tasks = append(p.tasks, packedTask{name: name(t.Name), c: t.C, t: t.T, d: t.D, mode: t.Mode, channel: t.Channel})
		}
		pe.tasks[1] = int32(len(p.tasks))
		pe.names[0] = int32(len(p.names))
		for _, n := range ev.Names {
			p.names = append(p.names, name(n))
		}
		pe.names[1] = int32(len(p.names))
		p.events = append(p.events, pe)
	}
	p.text = text.String()
	return p
}

// eventBuf is the backing store events are unpacked into; a run keeps
// one and reuses it, so unpacking allocates nothing once it has grown.
type eventBuf struct {
	events []repro.WorkloadEvent
	tasks  []repro.Task
	names  []string
}

// load unpacks the calls into b and returns them. They stay valid until
// the next load into b.
func (p *packed) load(b *eventBuf) []repro.WorkloadEvent {
	b.events, b.tasks, b.names = b.events[:0], b.tasks[:0], b.names[:0]
	str := func(r textRange) string { return p.text[r[0]:r[1]] }
	for _, t := range p.tasks {
		b.tasks = append(b.tasks, repro.Task{Name: str(t.name), C: t.c, T: t.t, D: t.d, Mode: t.mode, Channel: t.channel})
	}
	for _, r := range p.names {
		b.names = append(b.names, str(r))
	}
	for _, pe := range p.events {
		ev := repro.WorkloadEvent{At: pe.at, Kind: pe.kind, Capacity: pe.capacity}
		if from, to := pe.tasks[0], pe.tasks[1]; to > from {
			ev.Tasks = b.tasks[from:to:to]
		}
		if from, to := pe.names[0], pe.names[1]; to > from {
			ev.Names = b.names[from:to:to]
		}
		b.events = append(b.events, ev)
	}
	return b.events
}

// unpack returns the calls in storage of their own.
func (p *packed) unpack() []repro.WorkloadEvent {
	var b eventBuf
	return p.load(&b)
}

// len is the number of calls.
func (p *packed) len() int { return len(p.events) }

package main

import (
	"errors"
	"hash/fnv"
	"math"

	"repro"
)

// opKind is the manager write call one workload event becomes. Every
// call is one decision.
type opKind uint8

const (
	opAdmit opKind = iota
	opAdmitBatch
	opPartial
	opRemove
	opRemoveBatch
	opRevoke
	opRestore
	numOpKinds
)

var opNames = [numOpKinds]string{"admit", "admit_batch", "partial", "remove", "remove_batch", "revoke", "restore"}

func (k opKind) String() string { return opNames[k] }

// kindOf maps an event to the call the client makes for it: a
// one-task admission or removal uses the single-task entry point.
func kindOf(ev *repro.WorkloadEvent) opKind {
	switch ev.Kind {
	case repro.EventAdmit:
		if len(ev.Tasks) == 1 {
			return opAdmit
		}
		return opAdmitBatch
	case repro.EventAdmitPartial:
		return opPartial
	case repro.EventRemove:
		if len(ev.Names) == 1 {
			return opRemove
		}
		return opRemoveBatch
	case repro.EventRevoke:
		return opRevoke
	default:
		return opRestore
	}
}

// verdict is how the manager answered one decision.
type verdict uint8

const (
	accepted verdict = iota
	// rejected is a typed rejection: the error wraps
	// ErrAdmissionRejected, or a partial admission shed or refused some
	// of its batch.
	rejected
	// broken is any other error: a failed operation.
	broken
)

// outcome is one decision's answer plus the task-set delta it caused.
type outcome struct {
	v    verdict
	busy bool
	err  error
	// added and dropped are the tasks that entered and left the live
	// set (admissions, partial admissions and restores add; removals of
	// live tasks and evictions drop). Removal of a parked task drops
	// nothing: its profile share left when it was evicted.
	added, dropped repro.TaskSet
	// evicted are the tasks a Revoke parked.
	evicted repro.TaskSet
}

// call submits ev to m the way the client does. It only makes the
// call, so a caller's clock reads around it time the manager alone;
// verdictOf and classify read the answer afterwards.
func call(m *repro.OnlineManager, ev *repro.WorkloadEvent, k opKind, pol repro.AdmissionPolicy) (err error, rep *repro.AdmitReport, deg *repro.DegradeReport) {
	switch k {
	case opAdmit:
		err = m.Admit(ev.Tasks[0])
	case opAdmitBatch:
		err = m.AdmitBatch(ev.Tasks)
	case opPartial:
		rep, err = m.AdmitBatchPartial(ev.Tasks, pol)
	case opRemove:
		err = m.Remove(ev.Names[0])
	case opRemoveBatch:
		err = m.RemoveBatch(ev.Names)
	case opRevoke:
		deg, err = m.Revoke(ev.Capacity, pol)
	case opRestore:
		deg, err = m.Restore(ev.Capacity, pol)
	}
	return err, rep, deg
}

// verdictOf classifies a call's answer. A partial admission that shed
// or refused part of its batch counts as a rejection.
func verdictOf(err error, rep *repro.AdmitReport) (v verdict, busy bool) {
	if err == nil && rep != nil {
		err = rep.Err()
	}
	switch {
	case err == nil:
		return accepted, false
	case errors.Is(err, repro.ErrAdmissionRejected):
		return rejected, errors.Is(err, repro.ErrAdmissionBusy)
	}
	return broken, false
}

// classify turns a call's results into an outcome. live maps the names
// of live tasks to their (normalized) values and parked those of
// evicted ones; classify updates both to the state after the call.
func classify(ev *repro.WorkloadEvent, k opKind, err error, rep *repro.AdmitReport, deg *repro.DegradeReport, live, parked map[string]repro.Task) outcome {
	var o outcome
	o.v, o.busy = verdictOf(err, rep)
	if o.v == broken {
		o.err = err
	}
	switch k {
	case opAdmit, opAdmitBatch:
		if o.v == accepted {
			for _, t := range ev.Tasks {
				o.added = append(o.added, t.Normalized())
			}
		}
	case opPartial:
		if rep != nil {
			o.added = rep.Admitted
		}
	case opRemove, opRemoveBatch:
		if o.v == accepted {
			for _, name := range ev.Names {
				if t, ok := live[name]; ok {
					o.dropped = append(o.dropped, t)
				}
				delete(parked, name)
			}
		}
	case opRevoke, opRestore:
		if deg != nil {
			o.evicted = deg.Evicted
			o.dropped, o.added = deg.Evicted, deg.Readmitted
		}
	}
	for _, t := range o.dropped {
		delete(live, t.Name)
	}
	for _, t := range o.evicted {
		parked[t.Name] = t
	}
	for _, t := range o.added {
		delete(parked, t.Name)
		live[t.Name] = t
	}
	return o
}

// digest folds a verdict sequence and a final configuration into one
// number, so two runs can be compared for identical behaviour.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: fnv.New64a().Sum64()} }

func (d *digest) add(x uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= x & 0xff
		d.h *= 1099511628211
		x >>= 8
	}
}

func (d *digest) addConfig(c repro.Config) {
	for _, f := range []float64{c.P, c.Q.FT, c.Q.FS, c.Q.NF, c.O.FT, c.O.FS, c.O.NF} {
		d.add(math.Float64bits(f))
	}
}

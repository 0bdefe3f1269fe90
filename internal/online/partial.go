package online

import (
	"fmt"
	"slices"

	"repro/internal/task"
	"repro/internal/trace"
)

// Policy ranks tasks for the robustness decisions that must pick
// victims: partial admission sheds the lowest-value members of an
// overflowing batch, Revoke evicts the lowest-value live tasks, and
// Restore readmits parked tasks highest-value first. The zero Policy
// values every task at 1, so victim selection degenerates to
// name-ordered (deterministic, but value-blind).
type Policy struct {
	// Value returns the task's worth; higher values are kept longer and
	// readmitted sooner. nil values every task at 1.
	Value func(task.Task) float64
}

func (p Policy) value(t task.Task) float64 {
	if p.Value == nil {
		return 1
	}
	return p.Value(t)
}

// shedBefore orders victims: lower value first, ties broken by name so
// the choice is deterministic.
func (p Policy) shedBefore(a, b task.Task) bool {
	va, vb := p.value(a), p.value(b)
	if va != vb {
		return va < vb
	}
	return a.Name < b.Name
}

// AdmitReport is the typed outcome of a partial admission: which batch
// members made it in and, member by member, why the rest did not.
type AdmitReport struct {
	// Admitted holds the members now live, in admission order: batch
	// order for members that were never shed, then any members the
	// re-add pass recovered, highest value first.
	Admitted task.Set
	// Rejected holds one verdict per member not admitted: invalid,
	// name-taken, busy, or shed by the value policy.
	Rejected []TaskVerdict
	// Overflows snapshots the capacity overflow the first failed fit
	// reported — the modes whose slots did not fit before any shedding.
	// Empty when the whole batch fit.
	Overflows []SlotOverflow
}

// AllAdmitted reports whether every batch member was admitted.
func (r *AdmitReport) AllAdmitted() bool { return len(r.Rejected) == 0 }

// Err converts the report to an error: nil when everything was
// admitted, otherwise a *Rejection carrying the verdicts and overflow
// detail. The rejection is ErrBusy-retryable only when every rejected
// member failed on a transient in-flight conflict.
func (r *AdmitReport) Err() error {
	if r.AllAdmitted() {
		return nil
	}
	busy := true
	for _, v := range r.Rejected {
		if v.Code != VerdictBusy {
			busy = false
			break
		}
	}
	return &Rejection{Overflows: r.Overflows, Verdicts: r.Rejected, Busy: busy}
}

// AdmitBatchPartial admits as much of the batch as fits. Where
// AdmitBatch is all-or-nothing, this path degrades gracefully: members
// that fail validation or collide on a name are reported individually
// (they do not poison the rest), and when the survivors' slots
// overflow the available capacity the lowest-value members under pol
// are shed one at a time — one profile patch per shed via the
// incremental WithoutTasks machinery, not a recompile per candidate —
// until the remainder fits. A final re-add pass retries the shed
// members in descending value order, so the admitted set is
// greedy-maximal: no shed task could be added back without breaking
// feasibility (demand is monotone in the task set, so a task that does
// not fit next to the final admitted set would not fit next to any
// superset either).
//
// The returned report lists the admitted members and a verdict for
// every other one; report.Err() converts it to a typed *Rejection.
// The error return is reserved for internal failures; a batch that was
// merely shed or rejected returns a nil error. When everything fits,
// the result — configuration, profiles, patch counts — is
// bit-identical to AdmitBatch of the same batch.
func (m *Manager) AdmitBatchPartial(batch []task.Task, pol Policy) (*AdmitReport, error) {
	report, err := m.admitBatchPartial(batch, pol)
	if mt := m.met.Load(); mt != nil && err == nil {
		mt.PartialBatches.Inc()
		mt.TasksAdmitted.Add(uint64(len(report.Admitted)))
		shed := 0
		for _, v := range report.Rejected {
			if v.Code == VerdictShed {
				shed++
			}
		}
		mt.TasksShed.Add(uint64(shed))
	}
	return report, err
}

func (m *Manager) admitBatchPartial(batch []task.Task, pol Policy) (*AdmitReport, error) {
	report := &AdmitReport{}
	if len(batch) == 0 {
		return report, nil
	}
	valid := make(task.Set, 0, len(batch))
	inBatch := make(map[string]bool, len(batch))
	for _, t := range batch {
		t = t.Normalized()
		if err := t.Validate(); err != nil {
			report.Rejected = append(report.Rejected, TaskVerdict{Task: t, Code: VerdictInvalid, Detail: err.Error()})
			continue
		}
		if t.Name == "" {
			report.Rejected = append(report.Rejected, TaskVerdict{Task: t, Code: VerdictInvalid, Detail: "task must have a name (anonymous tasks cannot be removed later)"})
			continue
		}
		if inBatch[t.Name] {
			report.Rejected = append(report.Rejected, TaskVerdict{Task: t, Code: VerdictInvalid, Detail: "name duplicated in the batch"})
			continue
		}
		inBatch[t.Name] = true
		valid = append(valid, t)
	}
	reserved, conflicts := m.reservePartial(valid)
	report.Rejected = append(report.Rejected, conflicts...)
	if len(reserved) == 0 {
		return report, nil
	}
	touched := m.lockChannels(reserved, nil)
	defer unlockChannels(touched)
	for i := range touched {
		tc := &touched[i]
		group := reserved
		if len(touched) > 1 {
			group = reserved.ByChannel(tc.st.mode, tc.st.ch)
		}
		tc.thaw()
		if err := tc.st.prof.AddTasks(group); err != nil {
			// The group cannot be analysed together (its hyperperiod is
			// out of range): nothing of the batch was admitted.
			rollbackAdmits(touched)
			m.unreserveAdmit(reserved)
			for _, t := range reserved {
				report.Rejected = append(report.Rejected, TaskVerdict{Task: t, Code: VerdictInvalid, Detail: err.Error()})
			}
			return report, nil
		}
		tc.group, tc.minq, tc.patches = group, tc.st.prof.MinQ(m.p), 1
	}
	admitted, shed, overflows := m.commitPartial(touched, reserved, pol)
	report.Admitted = admitted
	report.Overflows = overflows
	if len(shed) > 0 {
		names := make([]string, len(shed))
		drop := make(task.Set, len(shed))
		for i, t := range shed {
			names[i] = t.Name
			drop[i] = t
			report.Rejected = append(report.Rejected, TaskVerdict{
				Task: t, Code: VerdictShed,
				Detail: fmt.Sprintf("shed by value policy (value %g) to fit the available capacity", pol.value(t)),
			})
		}
		m.unreserveAdmit(drop)
		m.emit(Event{Kind: trace.Shed, Tasks: names, Revoked: m.Revoked()})
	}
	if len(admitted) > 0 {
		m.maybeConsolidate(touched)
	}
	return report, nil
}

// reservePartial claims as many of the batch's names as are free,
// returning the reserved members and a verdict for each collision.
// Unlike reserveAdmit a collision does not abort the batch.
func (m *Manager) reservePartial(batch task.Set) (reserved task.Set, conflicts []TaskVerdict) {
	m.nameMu.Lock()
	defer m.nameMu.Unlock()
	for _, t := range batch {
		if e, exists := m.names[t.Name]; exists {
			conflicts = append(conflicts, TaskVerdict{Task: t, Code: collisionVerdict(e), Detail: collisionDetail(e)})
			continue
		}
		m.names[t.Name] = m.newEntryLocked(t, true)
		reserved = append(reserved, t)
	}
	return reserved, conflicts
}

// findTouched returns the locked shard candidate holding t's channel.
func findTouched(touched []touchedChannel, t task.Task) *touchedChannel {
	for i := range touched {
		if tc := &touched[i]; tc.st.mode == t.Mode && tc.st.ch == t.Channel {
			return tc
		}
	}
	return nil
}

// commitPartial is the shedding decide-and-swap: starting from the
// candidate profiles holding the whole reserved set, it sheds the
// lowest-value member (one WithoutTasks patch) until the slots fit the
// unrevoked capacity, then retries the shed members highest-value
// first (one WithTasks trial each, kept only if it still fits) so the
// admitted set is greedy-maximal under the policy order. Publishes the
// surviving configuration unless everything was shed. Caller holds the
// touched channels' locks and unreserves the shed names afterwards.
func (m *Manager) commitPartial(touched []touchedChannel, reserved task.Set, pol Policy) (admitted task.Set, shed task.Set, overflows []SlotOverflow) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	old := m.cur.Load()
	remaining := append(task.Set(nil), reserved...)
	for {
		next, reshaped, binding := m.candidateLocked(touched)
		if m.fits(next, old.revoked) {
			break
		}
		if overflows == nil {
			// Snapshot the pre-shedding overflow for the report.
			for _, mode := range task.Modes() {
				if !reshaped[mode] {
					continue
				}
				need := next.Q.Of(mode)
				overflows = append(overflows, SlotOverflow{
					Mode:      mode,
					Channel:   binding[mode],
					Requested: need,
					Max:       m.p - old.revoked - (next.Q.Total() - need),
					Period:    m.p,
					Revoked:   old.revoked,
				})
			}
		}
		if len(remaining) == 0 {
			// Cannot happen: with every batch member shed the candidate
			// equals the committed state, which fits by invariant. (The
			// inverse patches below restored the profiles along the way.)
			return nil, shed, overflows
		}
		victim := 0
		for i := 1; i < len(remaining); i++ {
			if pol.shedBefore(remaining[i], remaining[victim]) {
				victim = i
			}
		}
		t := remaining[victim]
		remaining = append(remaining[:victim], remaining[victim+1:]...)
		tc := findTouched(touched, t)
		if err := tc.st.prof.DropTasks(task.Set{t}); err != nil {
			// Cannot happen: t was patched in above. Shed it anyway.
			shed = append(shed, t)
			continue
		}
		tc.minq = tc.st.prof.MinQ(m.p)
		tc.patches++
		shed = append(shed, t)
	}
	// Re-add pass, highest value first: shedding is greedy, so an early
	// cheap shed can leave room a later victim's departure opened up.
	if len(shed) > 0 {
		slices.SortStableFunc(shed, func(a, b task.Task) int {
			switch {
			case pol.shedBefore(b, a):
				return -1
			case pol.shedBefore(a, b):
				return 1
			}
			return 0
		})
		kept := shed[:0]
		for _, t := range shed {
			tc := findTouched(touched, t)
			if err := tc.st.prof.AddTasks(task.Set{t}); err != nil {
				kept = append(kept, t)
				continue
			}
			oldMinq := tc.minq
			tc.minq = tc.st.prof.MinQ(m.p)
			if next, _, _ := m.candidateLocked(touched); m.fits(next, old.revoked) {
				tc.patches++
				remaining = append(remaining, t)
			} else {
				// The trial does not fit: the inverse patch restores the
				// profile bit for bit.
				_ = tc.st.prof.DropTasks(task.Set{t})
				tc.minq = oldMinq
				kept = append(kept, t)
			}
		}
		shed = kept
	}
	if len(remaining) == 0 {
		return nil, shed, overflows
	}
	// remaining is in profile-append order — batch order for the
	// never-shed members, then the re-added ones in readmission order —
	// which is exactly the order the incremental profiles hold them in.
	// Publishing the live set in the same order keeps the from-scratch
	// compile oracle bit-identical (float demand accumulation is
	// order-sensitive in the last ulp).
	admitted = remaining
	next, _, _ := m.candidateLocked(touched)
	if err := next.Validate(); err != nil {
		// Cannot happen: the candidate passed the fit check. Defensive:
		// admit nothing rather than publish a broken configuration.
		return nil, append(shed, admitted...), overflows
	}
	m.publishLocked(touched, admitted, nil, nil, next, old)
	return admitted, shed, overflows
}

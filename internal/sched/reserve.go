package sched

import "sync"

// ReserveController maintains t_reserve per Section 3.3 of the paper:
//
//   - When t_spare drops under t_reserve, t_reserve grows by the
//     difference, plus the amount t_spare has dropped beneath the
//     configured minimum (if applicable) — an aggressive response to a
//     suspected traffic spike.
//
//   - When t_spare rises above t_reserve, t_reserve shrinks by half the
//     difference, never below the minimum — a slow decay, to avoid
//     prematurely assuming the spike ended.
//
// Update is called once per (paper) second by the controller loop, which
// the staged server (internal/core) runs on its clock. What it samples is
// the caller's: the staged server counts the general slots held by
// requests Table 1 classified lengthy as spare, since the reserve already
// gave that capacity up. Read as busy, a lengthy request sent to
// or lent a general slot looks like a quick-traffic spike, and the grow
// rule locks the overflow out.
type ReserveController struct {
	mu      sync.Mutex
	min     int
	max     int // 0 = unlimited (the paper's literal rule)
	reserve int
}

// NewReserveController starts with reserve = min and no upper bound —
// the paper's literal rule.
//
// Note on stability: the paper's grow rule adds (t_reserve - t_spare)
// whenever t_spare is below t_reserve. If t_reserve ever exceeds the
// largest t_spare the pool can produce (its size), the rule grows
// t_reserve without bound and the overflow path ("lengthy requests may
// use the general pool") locks out permanently. The paper's 64-worker
// general pool never entered that region; smaller pools can. SetMax
// bounds t_reserve to keep the controller in its stable region; the
// staged server caps it at the general pool's size, and at 3/4 of it
// where the minimum is below that.
func NewReserveController(minReserve int) *ReserveController {
	if minReserve < 0 {
		panic("sched: negative minimum reserve")
	}
	return &ReserveController{min: minReserve, reserve: minReserve}
}

// SetMax bounds t_reserve above (0 removes the bound). If the current
// reserve exceeds the new bound it is clamped immediately.
func (r *ReserveController) SetMax(maxReserve int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.max = maxReserve
	if r.max > 0 && r.reserve > r.max {
		r.reserve = r.max
	}
}

// Reserve reports the current t_reserve.
func (r *ReserveController) Reserve() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.reserve
}

// Update folds one t_spare measurement into t_reserve and returns the new
// value. This is the exact rule reproduced by Table 2 of the paper.
func (r *ReserveController) Update(tspare int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if tspare < r.reserve {
		delta := r.reserve - tspare
		if tspare < r.min {
			delta += r.min - tspare
		}
		r.reserve += delta
		if r.max > 0 && r.reserve > r.max {
			r.reserve = r.max
		}
	} else {
		r.reserve -= (tspare - r.reserve) / 2
		if r.reserve < r.min {
			r.reserve = r.min
		}
	}
	return r.reserve
}

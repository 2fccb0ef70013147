package verify

// NewMemoLimit is Memo with generations of at most limit pairs each.
func NewMemoLimit(v Verifier, limit int) *Memoized { return newMemo(v, limit) }

// Generations returns how many pairs the current and the old generation
// hold.
func (m *Memoized) Generations() (cur, old int) { return len(m.cur), len(m.old) }

package mem

// FreeWords returns the number of unallocated control words remaining.
func (a *Arena) FreeWords() int { return len(a.words) - a.nextWord }

// FreePayload returns the number of unallocated payload bytes remaining.
func (a *Arena) FreePayload() int { return len(a.payload) - a.nextPayload }

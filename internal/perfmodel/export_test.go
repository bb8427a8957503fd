package perfmodel

// Replayed is the number of schedule replays the process has run so far.
func Replayed() int64 { return replayed.Load() }

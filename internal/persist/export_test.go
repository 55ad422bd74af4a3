package persist

// setCheckpointEvery lowers the checkpoint interval, so tests can cross
// several checkpoints in a few appends.
func (s *FileStore) setCheckpointEvery(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.every = n
}

// setStopAfter makes the next checkpoint stop after step, as a crash there
// would: the store leaves its files as they are and refuses further
// appends.
func (s *FileStore) setStopAfter(step string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopAfter = step
}

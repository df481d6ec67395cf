package dnssec

// VerifyUncached exposes the memo-free verification path to the
// external tests and benchmarks.
var VerifyUncached = verifyUncached

// VerifyMemoMax is the verification memo's bound.
const VerifyMemoMax = verifyMemoMax

// VerifyMemoLen reports how many outcomes the memo holds.
func VerifyMemoLen() int {
	verifyMemo.mu.Lock()
	defer verifyMemo.mu.Unlock()
	return len(verifyMemo.results)
}

// VerifyMemoStats reports the memo's hit and miss counts.
func VerifyMemoStats() (hits, misses uint64) {
	return verifyMemo.hits.Load(), verifyMemo.misses.Load()
}

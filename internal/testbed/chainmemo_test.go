package testbed

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dnswire"
	"repro/internal/nsec3"
)

// TestEncloserMemoMatchesFreshChain checks the NSEC3 closest-encloser
// memo against memo-free proofs for every NSEC3 zone of the testbed
// world. The qnames alternate between enclosers — the apex, deeper
// names, and wildcard owners' parents where *.ce matches instead of
// being covered — so the single-entry memo is replaced on almost every
// call, and several goroutines share each chain (run under -race).
func TestEncloserMemoMatchesFreshChain(t *testing.T) {
	h := buildWorld(t)
	var sawCovered, sawMatched bool
	var mu sync.Mutex
	zones := 0
	for apex, sz := range h.Zones {
		chain := sz.Chain()
		if chain == nil {
			continue
		}
		zones++
		// Interleave the apex with every other name as the encloser.
		var qnames []dnswire.Name
		for i, n := range sz.Zone.Names() {
			for _, ce := range []dnswire.Name{apex, n} {
				qnames = append(qnames,
					ce.MustChild(fmt.Sprintf("memo-%d", i)),
					ce.MustChild("deeper").MustChild(fmt.Sprintf("memo-%d", i)))
			}
		}
		const workers = 4
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := range qnames {
					q := qnames[(k+w*len(qnames)/workers)%len(qnames)]
					got, gotErr := chain.ProveNXDOMAIN(q, sz.Exists)
					fresh := &nsec3.Chain{Zone: chain.Zone, Params: chain.Params, Records: chain.Records}
					want, wantErr := fresh.ProveNXDOMAIN(q, sz.Exists)
					if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
						t.Errorf("%s: memoized proof %+v (%v), fresh chain %+v (%v)", q, got, gotErr, want, wantErr)
						return
					}
					if gotErr == nil {
						mu.Lock()
						sawCovered = sawCovered || got.Wildcard != nil
						sawMatched = sawMatched || got.Wildcard == nil
						mu.Unlock()
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if zones < 50 {
		t.Fatalf("checked %d NSEC3 zones, want the whole testbed", zones)
	}
	if !sawCovered || !sawMatched {
		t.Fatalf("proof shapes: wildcard covered %v, wildcard matched %v; want both", sawCovered, sawMatched)
	}
}

package experiments

import (
	"fmt"
	"strings"
	"testing"

	"fetchphi/internal/harness"
	"fetchphi/internal/memsim"
)

// Fingerprint workload: small, fixed, and seeded, so every number below
// is a deterministic function of the algorithm's shared-memory
// operation sequence.
const (
	fingerprintEntries = 3
	fingerprintSeed    = 11
)

// fingerprint renders the RMR-relevant outcome of one run: steps, total
// RMRs, worst entry/exit pair, bypass, aborts, and the names of the
// three hottest variables.
func fingerprint(met harness.Metrics) string {
	hot := make([]string, 0, 3)
	for i, h := range met.Hotspots {
		if i == 3 {
			break
		}
		hot = append(hot, h.Name)
	}
	return fmt.Sprintf("steps=%d rmrs=%d worst=%d bypass=%d aborts=%d hot=%s",
		met.Result.Steps, met.Result.TotalRMRs(), met.WorstRMR, met.MaxBypass, met.Aborts,
		strings.Join(hot, ","))
}

// TestRMRFingerprints pins the exact RMR accounting of every registered
// algorithm (both memory models) and every abortable algorithm (under
// E10's abort schedule) at N=2 and N=5. RMR accounting is
// deterministic, so any refactor of an algorithm that keeps its
// shared-memory operation sequence keeps these rows; a changed row
// means the operations, their order, or a variable's name changed.
func TestRMRFingerprints(t *testing.T) {
	got := map[string]string{}
	for _, n := range []int{2, 5} {
		for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
			w := harness.Workload{Model: model, N: n, Entries: fingerprintEntries, CSOps: 1, Seed: fingerprintSeed}
			for name, b := range Algorithms() {
				met, err := harness.Run(b, w)
				if err != nil {
					t.Fatalf("%s %v N=%d: %v", name, model, n, err)
				}
				got[fmt.Sprintf("%s %v N=%d", name, model, n)] = fingerprint(met)
			}
			for name, b := range AbortableAlgorithms() {
				met, err := harness.RunAbortable(b, harness.AbortWorkload{
					Workload:   w,
					Aborts:     e10Schedule(n, fingerprintEntries),
					Retries:    1,
					RetryDelay: 2,
				})
				if err != nil {
					t.Fatalf("%s %v N=%d: %v", name, model, n, err)
				}
				got[fmt.Sprintf("abortable %s %v N=%d", name, model, n)] = fingerprint(met)
			}
		}
	}
	for key, fp := range got {
		want, ok := wantFingerprints[key]
		switch {
		case !ok:
			t.Errorf("no pinned fingerprint for %q:\n\t%q: %q,", key, key, fp)
		case fp != want:
			t.Errorf("%s changed:\n\tgot  %s\n\twant %s", key, fp, want)
		}
	}
	for key := range wantFingerprints {
		if _, ok := got[key]; !ok {
			t.Errorf("pinned fingerprint %q was not produced", key)
		}
	}
}

// wantFingerprints was generated from the algorithms before their
// shared queue, exit-handshake, relay and promotion parts were
// factored out; those refactors must leave every row unchanged.
var wantFingerprints = map[string]string{
	"abortable gdsm-abortable/f&i CC N=2":  "steps=414 rmrs=142 worst=25 bypass=0 aborts=6 hot=gdsm-abort.Position[0],gdsm-abort.W2.Spin[1],cs-scratch",
	"abortable gdsm-abortable/f&i CC N=5":  "steps=1162 rmrs=495 worst=42 bypass=0 aborts=15 hot=gdsm-abort.Position[0],gdsm-abort.two.C[0],cs-scratch",
	"abortable gdsm-abortable/f&i DSM N=2": "steps=414 rmrs=377 worst=49 bypass=0 aborts=6 hot=gdsm-abort.W1.mu{0}.C[0],gdsm-abort.W1.mu{0}.C[1],gdsm-abort.W1.mu{1}.C[0]",
	"abortable gdsm-abortable/f&i DSM N=5": "steps=1162 rmrs=1046 worst=63 bypass=0 aborts=15 hot=gdsm-abort.CurrentQueue,gdsm-abort.two.C[0],gdsm-abort.two.C[1]",
	"abortable gdsm-abortable/f&s CC N=2":  "steps=414 rmrs=142 worst=25 bypass=0 aborts=6 hot=gdsm-abort.Position[0],gdsm-abort.W2.Spin[1],cs-scratch",
	"abortable gdsm-abortable/f&s CC N=5":  "steps=1162 rmrs=495 worst=42 bypass=0 aborts=15 hot=gdsm-abort.Position[0],gdsm-abort.two.C[0],cs-scratch",
	"abortable gdsm-abortable/f&s DSM N=2": "steps=414 rmrs=377 worst=49 bypass=0 aborts=6 hot=gdsm-abort.W1.mu{0}.C[0],gdsm-abort.W1.mu{0}.C[1],gdsm-abort.W1.mu{1}.C[0]",
	"abortable gdsm-abortable/f&s DSM N=5": "steps=1162 rmrs=1046 worst=63 bypass=0 aborts=15 hot=gdsm-abort.CurrentQueue,gdsm-abort.two.C[0],gdsm-abort.two.C[1]",
	"abortable token-abortable CC N=2":     "steps=199 rmrs=156 worst=34 bypass=0 aborts=0 hot=token.W.Spin[0],cs-scratch,token.Tail",
	"abortable token-abortable CC N=5":     "steps=679 rmrs=407 worst=45 bypass=0 aborts=11 hot=token.Tail,cs-scratch,token.W.Spin[0]",
	"abortable token-abortable DSM N=2":    "steps=199 rmrs=151 worst=33 bypass=0 aborts=0 hot=token.W.mu{2}.T,token.W.mu{3}.T,token.W.mu{6}.T",
	"abortable token-abortable DSM N=5":    "steps=679 rmrs=553 worst=52 bypass=0 aborts=11 hot=token.Tail,cs-scratch,token.W.mu{2}.T",
	"clh CC N=2":                           "steps=48 rmrs=31 worst=6 bypass=1 aborts=0 hot=clh.node,clh.node,clh.tail",
	"clh CC N=5":                           "steps=124 rmrs=87 worst=6 bypass=4 aborts=0 hot=clh.tail,cs-scratch,clh.node",
	"clh DSM N=2":                          "steps=48 rmrs=27 worst=6 bypass=1 aborts=0 hot=clh.node,clh.tail,cs-scratch",
	"clh DSM N=5":                          "steps=124 rmrs=79 worst=6 bypass=4 aborts=0 hot=clh.tail,cs-scratch,clh.node",
	"g-cc CC N=2":                          "steps=128 rmrs=78 worst=17 bypass=1 aborts=0 hot=gcc.Position[0],cs-scratch,gcc.two.C[1]",
	"g-cc CC N=5":                          "steps=356 rmrs=248 worst=23 bypass=6 aborts=0 hot=gcc.two.C[0],gcc.two.C[1],gcc.Position[0]",
	"g-cc DSM N=2":                         "steps=128 rmrs=117 worst=22 bypass=1 aborts=0 hot=gcc.two.C[0],gcc.two.C[1],gcc.Active[0]",
	"g-cc DSM N=5":                         "steps=356 rmrs=316 worst=26 bypass=6 aborts=0 hot=gcc.two.C[0],gcc.two.C[1],gcc.two.T",
	"g-cc-specialized CC N=2":              "steps=114 rmrs=65 worst=15 bypass=1 aborts=0 hot=cs-scratch,gcc-fi.two.T,gcc-fi.Active[0]",
	"g-cc-specialized CC N=5":              "steps=312 rmrs=208 worst=19 bypass=6 aborts=0 hot=gcc-fi.two.C[0],gcc-fi.two.C[1],gcc-fi.two.T",
	"g-cc-specialized DSM N=2":             "steps=114 rmrs=103 worst=19 bypass=1 aborts=0 hot=gcc-fi.two.C[0],gcc-fi.two.C[1],gcc-fi.Active[0]",
	"g-cc-specialized DSM N=5":             "steps=312 rmrs=277 worst=22 bypass=6 aborts=0 hot=gcc-fi.two.C[0],gcc-fi.two.C[1],gcc-fi.two.T",
	"g-cc/fas CC N=2":                      "steps=128 rmrs=78 worst=17 bypass=1 aborts=0 hot=gcc.Position[0],cs-scratch,gcc.two.C[1]",
	"g-cc/fas CC N=5":                      "steps=356 rmrs=248 worst=23 bypass=6 aborts=0 hot=gcc.two.C[0],gcc.two.C[1],gcc.Position[0]",
	"g-cc/fas DSM N=2":                     "steps=128 rmrs=117 worst=22 bypass=1 aborts=0 hot=gcc.two.C[0],gcc.two.C[1],gcc.Active[0]",
	"g-cc/fas DSM N=5":                     "steps=356 rmrs=316 worst=26 bypass=6 aborts=0 hot=gcc.two.C[0],gcc.two.C[1],gcc.two.T",
	"g-dsm CC N=2":                         "steps=321 rmrs=191 worst=52 bypass=1 aborts=0 hot=gdsm.Active[0],gdsm.Position[0],gdsm.W1.mu{0}.C[0]",
	"g-dsm CC N=5":                         "steps=784 rmrs=445 worst=41 bypass=6 aborts=0 hot=gdsm.Position[0],gdsm.two.C[0],gdsm.two.C[1]",
	"g-dsm DSM N=2":                        "steps=321 rmrs=283 worst=58 bypass=1 aborts=0 hot=gdsm.W1.mu{0}.C[0],gdsm.W1.mu{0}.C[1],gdsm.W1.mu{1}.C[0]",
	"g-dsm DSM N=5":                        "steps=784 rmrs=696 worst=56 bypass=6 aborts=0 hot=gdsm.two.C[0],gdsm.two.C[1],gdsm.two.T",
	"g-dsm-nowait CC N=2":                  "steps=290 rmrs=145 worst=34 bypass=1 aborts=0 hot=gdsm-nw.Position[0],gdsm-nw.W2.Spin[0],cs-scratch",
	"g-dsm-nowait CC N=5":                  "steps=797 rmrs=434 worst=40 bypass=6 aborts=0 hot=gdsm-nw.Position[0],gdsm-nw.two.C[0],gdsm-nw.two.C[1]",
	"g-dsm-nowait DSM N=2":                 "steps=290 rmrs=266 worst=51 bypass=1 aborts=0 hot=gdsm-nw.W1.mu{0}.C[0],gdsm-nw.W1.mu{0}.C[1],gdsm-nw.W1.mu{1}.C[0]",
	"g-dsm-nowait DSM N=5":                 "steps=797 rmrs=719 worst=53 bypass=6 aborts=0 hot=gdsm-nw.two.C[0],gdsm-nw.two.C[1],gdsm-nw.Position[0]",
	"g-dsm/fas CC N=2":                     "steps=321 rmrs=191 worst=52 bypass=1 aborts=0 hot=gdsm.Active[0],gdsm.Position[0],gdsm.W1.mu{0}.C[0]",
	"g-dsm/fas CC N=5":                     "steps=784 rmrs=445 worst=41 bypass=6 aborts=0 hot=gdsm.Position[0],gdsm.two.C[0],gdsm.two.C[1]",
	"g-dsm/fas DSM N=2":                    "steps=321 rmrs=283 worst=58 bypass=1 aborts=0 hot=gdsm.W1.mu{0}.C[0],gdsm.W1.mu{0}.C[1],gdsm.W1.mu{1}.C[0]",
	"g-dsm/fas DSM N=5":                    "steps=784 rmrs=696 worst=56 bypass=6 aborts=0 hot=gdsm.two.C[0],gdsm.two.C[1],gdsm.two.T",
	"graunke-thakkar CC N=2":               "steps=55 rmrs=28 worst=6 bypass=1 aborts=0 hot=gt.flag[0],gt.flag[1],cs-scratch",
	"graunke-thakkar CC N=5":               "steps=139 rmrs=70 worst=6 bypass=4 aborts=0 hot=cs-scratch,gt.tail,gt.flag[0]",
	"graunke-thakkar DSM N=2":              "steps=55 rmrs=23 worst=4 bypass=1 aborts=0 hot=cs-scratch,gt.flag[0],gt.tail",
	"graunke-thakkar DSM N=5":              "steps=139 rmrs=59 worst=4 bypass=4 aborts=0 hot=cs-scratch,gt.tail,gt.flag[0]",
	"mcs CC N=2":                           "steps=71 rmrs=45 worst=9 bypass=1 aborts=0 hot=mcs.locked[1],mcs.next[0],mcs.tail",
	"mcs CC N=5":                           "steps=182 rmrs=115 worst=8 bypass=4 aborts=0 hot=cs-scratch,mcs.tail,mcs.locked[0]",
	"mcs DSM N=2":                          "steps=71 rmrs=24 worst=5 bypass=1 aborts=0 hot=mcs.tail,cs-scratch,mcs.locked[1]",
	"mcs DSM N=5":                          "steps=182 rmrs=60 worst=4 bypass=4 aborts=0 hot=mcs.tail,cs-scratch,mcs.locked[0]",
	"mcs-swap-only CC N=2":                 "steps=72 rmrs=45 worst=9 bypass=1 aborts=0 hot=mcs2.locked[1],mcs2.next[0],mcs2.tail",
	"mcs-swap-only CC N=5":                 "steps=183 rmrs=115 worst=8 bypass=4 aborts=0 hot=cs-scratch,mcs2.tail,mcs2.locked[0]",
	"mcs-swap-only DSM N=2":                "steps=72 rmrs=25 worst=6 bypass=1 aborts=0 hot=mcs2.tail,cs-scratch,mcs2.locked[1]",
	"mcs-swap-only DSM N=5":                "steps=183 rmrs=61 worst=5 bypass=4 aborts=0 hot=mcs2.tail,cs-scratch,mcs2.locked[0]",
	"t CC N=2":                             "steps=358 rmrs=173 worst=36 bypass=1 aborts=0 hot=t.bar.Flag,t.Promoted,t.wq.in[0]",
	"t CC N=5":                             "steps=960 rmrs=511 worst=55 bypass=7 aborts=0 hot=t.bar.Flag,t.Promoted,t.wq.tail",
	"t DSM N=2":                            "steps=493 rmrs=443 worst=80 bypass=1 aborts=0 hot=t.wq.tail,t.bar.site.mu{0}.C[0],t.bar.site.mu{0}.C[1]",
	"t DSM N=5":                            "steps=1315 rmrs=1171 worst=122 bypass=7 aborts=0 hot=t.bar.site.mu{0}.C[0],t.bar.site.mu{0}.C[1],t.wq.tail",
	"t-anderson CC N=2":                    "steps=49 rmrs=30 worst=6 bypass=1 aborts=0 hot=anderson.slot[1],anderson.slot[0],anderson.tail",
	"t-anderson CC N=5":                    "steps=124 rmrs=78 worst=6 bypass=4 aborts=0 hot=anderson.tail,cs-scratch,anderson.slot[1]",
	"t-anderson DSM N=2":                   "steps=49 rmrs=29 worst=5 bypass=1 aborts=0 hot=anderson.slot[1],anderson.slot[0],anderson.tail",
	"t-anderson DSM N=5":                   "steps=124 rmrs=77 worst=6 bypass=4 aborts=0 hot=anderson.tail,cs-scratch,anderson.slot[2]",
	"t/fas CC N=2":                         "steps=360 rmrs=179 worst=36 bypass=1 aborts=0 hot=t.bar.Flag,t.Promoted,t.wq.in[0]",
	"t/fas CC N=5":                         "steps=958 rmrs=517 worst=56 bypass=7 aborts=0 hot=t.bar.Flag,t.Promoted,t.wq.tail",
	"t/fas DSM N=2":                        "steps=494 rmrs=442 worst=80 bypass=1 aborts=0 hot=t.wq.tail,t.bar.site.mu{0}.C[0],t.bar.site.mu{0}.C[1]",
	"t/fas DSM N=5":                        "steps=1314 rmrs=1166 worst=120 bypass=7 aborts=0 hot=t.bar.site.mu{0}.C[0],t.bar.site.mu{0}.C[1],t.wq.tail",
	"t0 CC N=2":                            "steps=239 rmrs=124 worst=28 bypass=1 aborts=0 hot=t0.bar.Flag,t0.Lock[1.0],t0.Promoted",
	"t0 CC N=5":                            "steps=732 rmrs=421 worst=44 bypass=9 aborts=0 hot=t0.bar.Flag,t0.Promoted,t0.two.C[0]",
	"t0 DSM N=2":                           "steps=385 rmrs=335 worst=64 bypass=1 aborts=0 hot=t0.bar.site.mu{0}.C[0],t0.bar.site.mu{0}.C[1],t0.wq.tail",
	"t0 DSM N=5":                           "steps=1045 rmrs=906 worst=87 bypass=7 aborts=0 hot=t0.bar.site.mu{0}.C[0],t0.bar.site.mu{0}.C[1],t0.wq.tail",
	"tas CC N=2":                           "steps=42 rmrs=20 worst=7 bypass=3 aborts=0 hot=tas.lock,cs-scratch",
	"tas CC N=5":                           "steps=185 rmrs=126 worst=30 bypass=11 aborts=0 hot=tas.lock,cs-scratch",
	"tas DSM N=2":                          "steps=42 rmrs=28 worst=8 bypass=3 aborts=0 hot=tas.lock,cs-scratch",
	"tas DSM N=5":                          "steps=185 rmrs=150 worst=35 bypass=11 aborts=0 hot=tas.lock,cs-scratch",
	"ticket CC N=2":                        "steps=43 rmrs=25 worst=5 bypass=1 aborts=0 hot=ticket.owner,cs-scratch,ticket.next",
	"ticket CC N=5":                        "steps=145 rmrs=100 worst=8 bypass=4 aborts=0 hot=ticket.owner,cs-scratch,ticket.next",
	"ticket DSM N=2":                       "steps=43 rmrs=29 worst=5 bypass=1 aborts=0 hot=ticket.owner,cs-scratch,ticket.next",
	"ticket DSM N=5":                       "steps=145 rmrs=110 worst=8 bypass=4 aborts=0 hot=ticket.owner,cs-scratch,ticket.next",
	"tree4 CC N=2":                         "steps=321 rmrs=187 worst=52 bypass=1 aborts=0 hot=tree.L0.0.Active[0],tree.L0.0.Position[0],tree.L0.0.W1.mu{0}.C[0]",
	"tree4 CC N=5":                         "steps=2005 rmrs=1046 worst=98 bypass=5 aborts=0 hot=tree.L2.0.CurrentQueue,tree.L2.0.Position[0],tree.L2.0.Active[0]",
	"tree4 DSM N=2":                        "steps=321 rmrs=283 worst=58 bypass=1 aborts=0 hot=tree.L0.0.W1.mu{0}.C[0],tree.L0.0.W1.mu{0}.C[1],tree.L0.0.W1.mu{1}.C[0]",
	"tree4 DSM N=5":                        "steps=2005 rmrs=1877 worst=139 bypass=5 aborts=0 hot=tree.L2.0.W1.mu{0}.C[0],tree.L2.0.W1.mu{0}.C[1],tree.L2.0.two.C[0]",
	"tree8 CC N=2":                         "steps=321 rmrs=191 worst=52 bypass=1 aborts=0 hot=tree.L0.0.Active[0],tree.L0.0.Position[0],tree.L0.0.W1.mu{0}.C[0]",
	"tree8 CC N=5":                         "steps=1390 rmrs=739 worst=74 bypass=6 aborts=0 hot=tree.L1.0.Position[0],tree.L0.0.two.C[0],tree.L1.0.Active[0]",
	"tree8 DSM N=2":                        "steps=321 rmrs=283 worst=58 bypass=1 aborts=0 hot=tree.L0.0.W1.mu{0}.C[0],tree.L0.0.W1.mu{0}.C[1],tree.L0.0.W1.mu{1}.C[0]",
	"tree8 DSM N=5":                        "steps=1390 rmrs=1286 worst=98 bypass=6 aborts=0 hot=tree.L1.0.W1.mu{0}.C[0],tree.L1.0.W1.mu{0}.C[1],tree.L1.0.two.C[0]",
	"yang-anderson-tree CC N=2":            "steps=67 rmrs=42 worst=11 bypass=1 aborts=0 hot=ya.node.C[0],ya.node.C[1],ya.node.T",
	"yang-anderson-tree CC N=5":            "steps=406 rmrs=274 worst=26 bypass=6 aborts=0 hot=ya.node.C[0],ya.node.C[1],ya.node.C[0]",
	"yang-anderson-tree DSM N=2":           "steps=67 rmrs=47 worst=10 bypass=1 aborts=0 hot=ya.node.C[0],ya.node.C[1],ya.node.T",
	"yang-anderson-tree DSM N=5":           "steps=406 rmrs=321 worst=25 bypass=6 aborts=0 hot=ya.node.C[0],ya.node.C[1],ya.node.T",
}

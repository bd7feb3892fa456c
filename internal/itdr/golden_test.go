package itdr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"divot/internal/analog"
	"divot/internal/rng"
	"divot/internal/txline"
)

// fixedFault is an Injector applying the same fault to every measurement.
type fixedFault struct{ mf MeasurementFault }

func (f fixedFault) BeginMeasurement(uint64) (MeasurementFault, bool) { return f.mf, true }

// goldenFaults are the measurement faults the golden matrix crosses with
// every trigger and environment: one per per-trial fault path of
// measureBin, plus the healthy path.
var goldenFaults = []struct {
	name string
	mf   *MeasurementFault // nil: no injector attached
}{
	{"healthy", nil},
	{"dead", &MeasurementFault{Bin: func(m int) BinFault { return BinFault{Dead: m%7 == 3} }}},
	{"stuck-low", &MeasurementFault{Stuck: StuckLow}},
	{"stuck-high", &MeasurementFault{Stuck: StuckHigh}},
	{"distorted", &MeasurementFault{ExtraOffset: 0.7e-3, NoiseScale: 1.8}},
	{"phase", &MeasurementFault{PhaseOffset: 37e-12}},
	{"xor", &MeasurementFault{Bin: func(m int) BinFault { return BinFault{CounterXOR: uint32(m % 5 * 3)} }}},
	// Precedence: a dead bin never fires, even under a stuck-high or
	// distorted comparator; a counter upset lands on the rail count.
	{"dead+stuck-high", &MeasurementFault{Stuck: StuckHigh, Bin: func(m int) BinFault { return BinFault{Dead: m%7 == 3} }}},
	{"dead+distorted", &MeasurementFault{ExtraOffset: -0.5e-3, NoiseScale: 0.6, Bin: func(m int) BinFault { return BinFault{Dead: m%7 == 3} }}},
	{"stuck-high+xor", &MeasurementFault{Stuck: StuckHigh, Bin: func(m int) BinFault { return BinFault{CounterXOR: uint32(m % 5 * 3)} }}},
}

// goldenIIPDigests pins the SHA-256 of two consecutive MeasureInto results
// (IIP sample bits, Saturated flags and CyclesUsed) for every cell of the
// trigger × EMI × jitter × fault matrix. "clock-mod" is clock triggering
// with an explicit modulator, which bypasses the shared warmup. The digests
// were recorded before the trial loop was restructured and must reproduce
// bit for bit.
var goldenIIPDigests = map[string]string{
	"clock-mod/emi=false/jitter=0/dead":                "c78cb23514ccd97e9597bd3ee3f29acad7a1871a29ad7f8aa93b6f2f57266a1a",
	"clock-mod/emi=false/jitter=0/dead+distorted":      "cecb58d73df7f5f3f49784a40fe64b59f7557029e9eecc7939ff40ab15d85f6f",
	"clock-mod/emi=false/jitter=0/dead+stuck-high":     "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock-mod/emi=false/jitter=0/distorted":           "2d32ef0c8f2a77cdfaa4f06236af363e4e4ffa58fb921f8566b6b328e3fc7688",
	"clock-mod/emi=false/jitter=0/healthy":             "c60fb495ccdc1becb4fca80f5f08899daea276032ddc9486c16973193bd5dfd8",
	"clock-mod/emi=false/jitter=0/phase":               "87290b157f89fd53ee4cb14b6049117d5d4f3e48bc3807012daa6c4b300665f9",
	"clock-mod/emi=false/jitter=0/stuck-high":          "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock-mod/emi=false/jitter=0/stuck-high+xor":      "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock-mod/emi=false/jitter=0/stuck-low":           "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock-mod/emi=false/jitter=0/xor":                 "e3eafb67b0c5b3d3925fe8ac3628c8219f28eddb632aaa537193e8d26222958f",
	"clock-mod/emi=false/jitter=2e-12/dead":            "3348c883cfc5099eab392146562a3f1e6afba7da8de18021bea849a4e66fba59",
	"clock-mod/emi=false/jitter=2e-12/dead+distorted":  "56164e72d5b19bc38b6d57ff201921e92d4e8c1c7e0e3a64184ea5815f347aa0",
	"clock-mod/emi=false/jitter=2e-12/dead+stuck-high": "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock-mod/emi=false/jitter=2e-12/distorted":       "127651469a0b72608389d9931d1c6d32a3ae37528b3d28ed1f4fa5ebcebd521f",
	"clock-mod/emi=false/jitter=2e-12/healthy":         "6afb341edb6b16541dadaa2236b0a7bcc203e434e72d8a9f959f0bf18ec09ed2",
	"clock-mod/emi=false/jitter=2e-12/phase":           "de0a03d8620da2480adeee771d484f24cca25c3e107d8a1249f7f439a7a9dbda",
	"clock-mod/emi=false/jitter=2e-12/stuck-high":      "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock-mod/emi=false/jitter=2e-12/stuck-high+xor":  "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock-mod/emi=false/jitter=2e-12/stuck-low":       "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock-mod/emi=false/jitter=2e-12/xor":             "ff3312170ccf8f7f6645e95845021049fb737a03b00df6e53032a9c25ae7d93b",
	"clock-mod/emi=true/jitter=0/dead":                 "69a4e0b57ae4e6736d895bf6da730eec0668ca4999811f2ce4f00b070b4724ae",
	"clock-mod/emi=true/jitter=0/dead+distorted":       "115f060a3fccf3d578f1177ea8bae9a8a0323ce20c1712eeba923dd17bad2b01",
	"clock-mod/emi=true/jitter=0/dead+stuck-high":      "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock-mod/emi=true/jitter=0/distorted":            "3bcae19f97456eb0fda9162a74444876042da0f9bfe7a9b64e8a7fd01e7469ba",
	"clock-mod/emi=true/jitter=0/healthy":              "50ede6ba3b1d7499f4d0864653af70706cd09efcc0114ad4da647eec1326bc4b",
	"clock-mod/emi=true/jitter=0/phase":                "84390cd1b2808621e0b88fa3c2fbf0b90ceb4bf156f3f2d1ce8f8e3f10d1989f",
	"clock-mod/emi=true/jitter=0/stuck-high":           "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock-mod/emi=true/jitter=0/stuck-high+xor":       "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock-mod/emi=true/jitter=0/stuck-low":            "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock-mod/emi=true/jitter=0/xor":                  "4eef307c7ffe5fc2f1569afdd8bcf74297ab5c12857526dce14a05210073680c",
	"clock-mod/emi=true/jitter=2e-12/dead":             "c52003c0d277525b8774c7daa8d7aace133de2240079c92f79fb547207aca2d3",
	"clock-mod/emi=true/jitter=2e-12/dead+distorted":   "f0a7cbf8fd0a16fc15ed60bdd43f8b8a1ad1d74c4297a335a1d1dea275af08f5",
	"clock-mod/emi=true/jitter=2e-12/dead+stuck-high":  "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock-mod/emi=true/jitter=2e-12/distorted":        "d25137ad1b0398399a65bd288c9da877fbda5d02d35f2e3fd4dbb3384397f29c",
	"clock-mod/emi=true/jitter=2e-12/healthy":          "84bb9ad5cc761dc25438db1d69898ad5553b8e4a4821fe745cc7fd02fb5fdd04",
	"clock-mod/emi=true/jitter=2e-12/phase":            "2fb72d96306ac1eeddb16400f48068abcf3fbb20736605c3e5a871f6f6975ff1",
	"clock-mod/emi=true/jitter=2e-12/stuck-high":       "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock-mod/emi=true/jitter=2e-12/stuck-high+xor":   "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock-mod/emi=true/jitter=2e-12/stuck-low":        "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock-mod/emi=true/jitter=2e-12/xor":              "039f032b407ba5b34122c7188156f138198018248812052ee825e23706157dc9",
	"clock/emi=false/jitter=0/dead":                    "c78cb23514ccd97e9597bd3ee3f29acad7a1871a29ad7f8aa93b6f2f57266a1a",
	"clock/emi=false/jitter=0/dead+distorted":          "cecb58d73df7f5f3f49784a40fe64b59f7557029e9eecc7939ff40ab15d85f6f",
	"clock/emi=false/jitter=0/dead+stuck-high":         "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock/emi=false/jitter=0/distorted":               "2d32ef0c8f2a77cdfaa4f06236af363e4e4ffa58fb921f8566b6b328e3fc7688",
	"clock/emi=false/jitter=0/healthy":                 "c60fb495ccdc1becb4fca80f5f08899daea276032ddc9486c16973193bd5dfd8",
	"clock/emi=false/jitter=0/phase":                   "87290b157f89fd53ee4cb14b6049117d5d4f3e48bc3807012daa6c4b300665f9",
	"clock/emi=false/jitter=0/stuck-high":              "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock/emi=false/jitter=0/stuck-high+xor":          "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock/emi=false/jitter=0/stuck-low":               "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock/emi=false/jitter=0/xor":                     "e3eafb67b0c5b3d3925fe8ac3628c8219f28eddb632aaa537193e8d26222958f",
	"clock/emi=false/jitter=2e-12/dead":                "3348c883cfc5099eab392146562a3f1e6afba7da8de18021bea849a4e66fba59",
	"clock/emi=false/jitter=2e-12/dead+distorted":      "56164e72d5b19bc38b6d57ff201921e92d4e8c1c7e0e3a64184ea5815f347aa0",
	"clock/emi=false/jitter=2e-12/dead+stuck-high":     "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock/emi=false/jitter=2e-12/distorted":           "127651469a0b72608389d9931d1c6d32a3ae37528b3d28ed1f4fa5ebcebd521f",
	"clock/emi=false/jitter=2e-12/healthy":             "6afb341edb6b16541dadaa2236b0a7bcc203e434e72d8a9f959f0bf18ec09ed2",
	"clock/emi=false/jitter=2e-12/phase":               "de0a03d8620da2480adeee771d484f24cca25c3e107d8a1249f7f439a7a9dbda",
	"clock/emi=false/jitter=2e-12/stuck-high":          "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock/emi=false/jitter=2e-12/stuck-high+xor":      "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock/emi=false/jitter=2e-12/stuck-low":           "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock/emi=false/jitter=2e-12/xor":                 "ff3312170ccf8f7f6645e95845021049fb737a03b00df6e53032a9c25ae7d93b",
	"clock/emi=true/jitter=0/dead":                     "69a4e0b57ae4e6736d895bf6da730eec0668ca4999811f2ce4f00b070b4724ae",
	"clock/emi=true/jitter=0/dead+distorted":           "115f060a3fccf3d578f1177ea8bae9a8a0323ce20c1712eeba923dd17bad2b01",
	"clock/emi=true/jitter=0/dead+stuck-high":          "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock/emi=true/jitter=0/distorted":                "3bcae19f97456eb0fda9162a74444876042da0f9bfe7a9b64e8a7fd01e7469ba",
	"clock/emi=true/jitter=0/healthy":                  "50ede6ba3b1d7499f4d0864653af70706cd09efcc0114ad4da647eec1326bc4b",
	"clock/emi=true/jitter=0/phase":                    "84390cd1b2808621e0b88fa3c2fbf0b90ceb4bf156f3f2d1ce8f8e3f10d1989f",
	"clock/emi=true/jitter=0/stuck-high":               "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock/emi=true/jitter=0/stuck-high+xor":           "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock/emi=true/jitter=0/stuck-low":                "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock/emi=true/jitter=0/xor":                      "4eef307c7ffe5fc2f1569afdd8bcf74297ab5c12857526dce14a05210073680c",
	"clock/emi=true/jitter=2e-12/dead":                 "c52003c0d277525b8774c7daa8d7aace133de2240079c92f79fb547207aca2d3",
	"clock/emi=true/jitter=2e-12/dead+distorted":       "f0a7cbf8fd0a16fc15ed60bdd43f8b8a1ad1d74c4297a335a1d1dea275af08f5",
	"clock/emi=true/jitter=2e-12/dead+stuck-high":      "504f38556ed79b9f11a3535d3d261909c9f6b7eda60ca465144759e552375a65",
	"clock/emi=true/jitter=2e-12/distorted":            "d25137ad1b0398399a65bd288c9da877fbda5d02d35f2e3fd4dbb3384397f29c",
	"clock/emi=true/jitter=2e-12/healthy":              "84bb9ad5cc761dc25438db1d69898ad5553b8e4a4821fe745cc7fd02fb5fdd04",
	"clock/emi=true/jitter=2e-12/phase":                "2fb72d96306ac1eeddb16400f48068abcf3fbb20736605c3e5a871f6f6975ff1",
	"clock/emi=true/jitter=2e-12/stuck-high":           "f8ccddf0f14937267e7b5d3c47f04f00182d177a3aa55050dd202e2d23505588",
	"clock/emi=true/jitter=2e-12/stuck-high+xor":       "d2189ac641a7eed2fb6d44ce00a1c4f0c7e1410c386e4d2c04fe00ddcb0f9d97",
	"clock/emi=true/jitter=2e-12/stuck-low":            "8bccb6e688d8c2bb85a7fb9e7402f1c5945cc094945d7949b5af273bd54204de",
	"clock/emi=true/jitter=2e-12/xor":                  "039f032b407ba5b34122c7188156f138198018248812052ee825e23706157dc9",
	"fifo/emi=false/jitter=0/dead":                     "5dc584d1b0778f39e23210ca93193438e2df331449cf7518502acadbd31f5020",
	"fifo/emi=false/jitter=0/dead+distorted":           "b1d8ee1d326c727e41e849a9399ff8c512d7cc505f78747bb856b3ac00f7c6b3",
	"fifo/emi=false/jitter=0/dead+stuck-high":          "d68341fdd30c987cff0dbb2883600e4663c45737209b8deadfd49678cb847eab",
	"fifo/emi=false/jitter=0/distorted":                "2367edd7d655476ff8a436ed745380e01ac12fed83f13922ce8e4801d7574ec3",
	"fifo/emi=false/jitter=0/healthy":                  "5a53fe1b2f2b4b4c01b45521d75f359360025b3ac0dcfd5dbe1596a373003467",
	"fifo/emi=false/jitter=0/phase":                    "93165fd5cf8de3e77f3021a1eeecd1d8d7febbbe71017a80cc47125644d8b896",
	"fifo/emi=false/jitter=0/stuck-high":               "34e4f0fc899a561aec27cdf7e6f215c199c57518047cb5ce276301082e582925",
	"fifo/emi=false/jitter=0/stuck-high+xor":           "cb82e0bf8d20045c6b07ea2e0cbc62d4600ad61288b09681cea1200ddd7c8536",
	"fifo/emi=false/jitter=0/stuck-low":                "644233126f40a19cb42032ed9c8d0443211ddf251da2b71835bc5dda1b2603e8",
	"fifo/emi=false/jitter=0/xor":                      "961be41ea61c0a52cc906f02eb8da95d5d9da4766ab2298c420929f68d88857f",
	"fifo/emi=false/jitter=2e-12/dead":                 "ea66c7973077ee90076c92a70ccdd6164b7dfd1144cc86342b75438b3835d2f5",
	"fifo/emi=false/jitter=2e-12/dead+distorted":       "e1a5a25039a68654094b06413e30c7fb74eb5e30e4801087010664188fbdd533",
	"fifo/emi=false/jitter=2e-12/dead+stuck-high":      "5fdbfb9e284f191be95d1f3610fe153641c905e93abad8f8f5a4e172fbc6c3ec",
	"fifo/emi=false/jitter=2e-12/distorted":            "5b601949c180c113b81a7a9559656abbcd5ce6eab0d1d45f12d903ca5606df1d",
	"fifo/emi=false/jitter=2e-12/healthy":              "e797e0eb872379382e4d4d046f2c7a7ce6c92e44467dc54994eb34c003d04e02",
	"fifo/emi=false/jitter=2e-12/phase":                "3444f18932aff3c25ea292361a9eb5f8f6ad6b0605a2bb83cc9f605f71b2495a",
	"fifo/emi=false/jitter=2e-12/stuck-high":           "b63a9d7e278aeb24288ad0aa3634eaa7d9b676a4cbf2a3403532fdeb3ea4125b",
	"fifo/emi=false/jitter=2e-12/stuck-high+xor":       "f52aaf7dd99fbfefc81f35a7761ea4f379ea8aa11fbca5a35b4a8256d2533265",
	"fifo/emi=false/jitter=2e-12/stuck-low":            "cf9c1beef4f26901d6dc994379eb2565ca19dca49010b52b285ff78dbb3e542d",
	"fifo/emi=false/jitter=2e-12/xor":                  "a1d8eea17071981e551fcc34762c5daed8d4451061b8790c004929877aa34e3a",
	"fifo/emi=true/jitter=0/dead":                      "bdef9cfa46e9ac3264868d6b1f11e29b8d1f062efb4ccf1ba18053793da07a10",
	"fifo/emi=true/jitter=0/dead+distorted":            "a16c041f63c4132230c9603de9848f918ab22240523749f39bddd87a6b84a58a",
	"fifo/emi=true/jitter=0/dead+stuck-high":           "f2443a2388fa7e205b3262bfcab7e82f3b4064c1ad7be43e4bcd0202ef68d262",
	"fifo/emi=true/jitter=0/distorted":                 "1278c50b6d74cccab9e19fc582d8483fe44ed26d561112c5209fb71610862051",
	"fifo/emi=true/jitter=0/healthy":                   "acde01294508a08e5026bf9134febb49c2f7382a6fe34338f7cb455a3d8cb346",
	"fifo/emi=true/jitter=0/phase":                     "5b272dae2b5cf31e2cb263ec1053a777e774c926c04b952997fcfc1a756ef1ee",
	"fifo/emi=true/jitter=0/stuck-high":                "fd72ddf4c1b95ffc768ff53f6d05c3d5a0f299ac181875a765d9dd117de9fdd7",
	"fifo/emi=true/jitter=0/stuck-high+xor":            "c3d319d864a2f11ea16326cdd3b99e7a71291ea0e631437ee4d2e97e5070b60d",
	"fifo/emi=true/jitter=0/stuck-low":                 "13914d9c356b41adc294ffd0a6aa81c615f80c9d8c3dcc517ff66b77816fd864",
	"fifo/emi=true/jitter=0/xor":                       "e513b3aba58b6beb390ddec6716d5022e71997bf1e860658fd6d35dbb6c0d631",
	"fifo/emi=true/jitter=2e-12/dead":                  "191ab1e2a35d5bf427c43cf3abc1f8072bfdea28b83a9dadf8ba7ca41aab9422",
	"fifo/emi=true/jitter=2e-12/dead+distorted":        "707961c4b07e4515d07fd4e549a0ac3ded6b90782e0bad5524a4f9120af6ecf9",
	"fifo/emi=true/jitter=2e-12/dead+stuck-high":       "2bebcd968878d995e5522359af4b2353b1d3e66fe012d631047c039d3c3eab41",
	"fifo/emi=true/jitter=2e-12/distorted":             "92b59707a3024e6c3536f70b3c9e6505159103e6b1126086cf919926a7fb6486",
	"fifo/emi=true/jitter=2e-12/healthy":               "59d6d582f3f07a4381b85da46589a804caccd54166d81af507520ad46bb77007",
	"fifo/emi=true/jitter=2e-12/phase":                 "d4228ebf8770b9383e1e5f82e09b2fcf1961b78ca769b5cb7c007eec354629e0",
	"fifo/emi=true/jitter=2e-12/stuck-high":            "8eff34133e752f06b4c60db55ec064bb34504c697380c0e4045a2779e747cdfb",
	"fifo/emi=true/jitter=2e-12/stuck-high+xor":        "3f977a48da850f2b7c6d4f01d63865b68fcae6510a484c9e4b9ee8825ee38495",
	"fifo/emi=true/jitter=2e-12/stuck-low":             "8229e5f2892fad9f00288c37c37e811298009d8aa7db3e7d92e5e11ccd58dba8",
	"fifo/emi=true/jitter=2e-12/xor":                   "099903f7aaf86ade80dbce475c10484017da56c46fe9b6e988fabbea753543e4",
	"none/emi=false/jitter=0/dead":                     "77dcf77339790e698ecba38b62ac5b6ecbe854a46aa2ff61386e0d1683f4fee9",
	"none/emi=false/jitter=0/dead+distorted":           "e2cf7900226b902d7dd0eb1c72c5954208e8d23ca35738b9e84dd7fedd186c17",
	"none/emi=false/jitter=0/dead+stuck-high":          "15235027b564572fcb0ca6aa47779828b62903a6f0acbf1bd17c3f56c7add2a2",
	"none/emi=false/jitter=0/distorted":                "5b45f297d44ec5ca753e1c79ef8fb989199f8a882ea865a8263db57352db4532",
	"none/emi=false/jitter=0/healthy":                  "555a8b21a4fa1b5deb6970a24c3495410c707a8bd829bdde21d456c0ab22c9dc",
	"none/emi=false/jitter=0/phase":                    "b1cc8abff1225c981699562058ee482eea276b16f332af07226596aa49a58f00",
	"none/emi=false/jitter=0/stuck-high":               "da958698fdd82cfb330759ca510fdc6151c548d40a2cc0b3b14c4f1c489c790c",
	"none/emi=false/jitter=0/stuck-high+xor":           "dd102ca1501edac68916a8bda6acf3a9eb4e3a18506da13a8f2b6c150427f076",
	"none/emi=false/jitter=0/stuck-low":                "3e468123de048ee0e45cd0d14b58b4e662fbd4d03d052e502b7769173b30692e",
	"none/emi=false/jitter=0/xor":                      "bb5e82ba6f107e200446720df161c9f66e8be855f7a17f6d345d0e10a3921e97",
	"none/emi=false/jitter=2e-12/dead":                 "e77a096e23e2dad336daff78256c03d5f376e73cf59e8c59e7ed57667e4a22ae",
	"none/emi=false/jitter=2e-12/dead+distorted":       "17b316705df73a01e47beb424ec2d2c954bc1f3e4abca56d4bdbcd14cb34c09a",
	"none/emi=false/jitter=2e-12/dead+stuck-high":      "754801aa061e9eaa043a24483aa915e6730c49b406a42c59a6a38a2156db2c49",
	"none/emi=false/jitter=2e-12/distorted":            "6238c6da6170b54021a5f7ebd17a8977b83eaace3eb12c245a6df069fd047546",
	"none/emi=false/jitter=2e-12/healthy":              "44ff64290f5e05a004fe0607a0987d674203bf713847ee13b0a723cc26cacd78",
	"none/emi=false/jitter=2e-12/phase":                "9668b28aff68bd10d475446062a6567aac7e3c77c3d14e61a17332f246a7f96f",
	"none/emi=false/jitter=2e-12/stuck-high":           "7735499d7e9fe477d7b7493846855bf4bb9295d44ee45b496e5fc22c709d53ae",
	"none/emi=false/jitter=2e-12/stuck-high+xor":       "d3e4961ccda4b7b1cfd79398e6e5cfee767a2e673e3bca76557d4a523804a75e",
	"none/emi=false/jitter=2e-12/stuck-low":            "6b9a44bec4a4fbadcfb4b687ccbebbe71243d2f2737e36f6c079c8642cbee546",
	"none/emi=false/jitter=2e-12/xor":                  "79ab47ad84a6743ba59b5c63cc935555957e37955e41f74822a5a4b3186b07a8",
	"none/emi=true/jitter=0/dead":                      "bb0652118f14dbdb225cda7ddf1114fefdfa0bb941056c0b3885d1661623bac5",
	"none/emi=true/jitter=0/dead+distorted":            "44471577ebb69174a903f63347078fb0bc20b7d9f91e00631dfba363b2ea7bd3",
	"none/emi=true/jitter=0/dead+stuck-high":           "7987a3ebe7cc1f44cfdb0fc711b3c90d8189e7ce5b119fd8df939b03e4494a18",
	"none/emi=true/jitter=0/distorted":                 "1e749c9666fc3b51bad3873af983216dc2e0ae0fd091c085353bc431b84e8f93",
	"none/emi=true/jitter=0/healthy":                   "4555ccce952056ee97929081d3056ce5273c7a7f63218cd8147d9b57d20fc9f6",
	"none/emi=true/jitter=0/phase":                     "354e33b5fe36b31b442188db3d81f90f9e62016ee61672d60728d42826a787c2",
	"none/emi=true/jitter=0/stuck-high":                "680cd07eef92c8c92190192ecdfd92ba4eb530e3aa8450973b1a72b827dd618e",
	"none/emi=true/jitter=0/stuck-high+xor":            "47486885d02b2ffaa39c9b6fc15ae0d0632d9c5e32a8719ed207d1a798461740",
	"none/emi=true/jitter=0/stuck-low":                 "489d6212edefe4dd6d1c8facd0b919c570f437bc5f29dc80a8572d2897cfd261",
	"none/emi=true/jitter=0/xor":                       "b2d33857afeb587396b2d95a9c61ecb603cc1caaa903c9ac8571149e1c76f9d7",
	"none/emi=true/jitter=2e-12/dead":                  "1fb21efb6e134b81512c68273023f2dff12e28b0dddfaba7992e864744613761",
	"none/emi=true/jitter=2e-12/dead+distorted":        "1f92ae19f0920b7170141a5071a9b0af4f535b556f07c862cceed05350fc4af0",
	"none/emi=true/jitter=2e-12/dead+stuck-high":       "35569dd6e14f529d21136a7768f6577b5adfc7bf2b8fa9d1b16638a07d5c3329",
	"none/emi=true/jitter=2e-12/distorted":             "0ed93a72ddd8dcdb696f3e40d17c8470763c56144aa2bf85e1fbd1f1944eb817",
	"none/emi=true/jitter=2e-12/healthy":               "0e66ad0993e99c644c53e95ac2d4dd668fe7c74ffad88a72d2009fa81c9c4213",
	"none/emi=true/jitter=2e-12/phase":                 "2c3a2df3e57d8c5621cbe4a58b5ccab991da20b65a9aef906887ea95ab584e6f",
	"none/emi=true/jitter=2e-12/stuck-high":            "92e721c65585016dee9f87fd6c7912d164272ef1060b6db41cc13663ef8e6eeb",
	"none/emi=true/jitter=2e-12/stuck-high+xor":        "3cd959d018a99a4e52b18095dd27567a4f720b4206fd082b01a90d1f5a51a50b",
	"none/emi=true/jitter=2e-12/stuck-low":             "892cafe8944b9cee1b0862def0be98245d4164f4b9a6aeda0a3701d78260f990",
	"none/emi=true/jitter=2e-12/xor":                   "5c05cbd760746ea1218cfcfc833d6bb0880704126e0502a6cd38e6e332b855a1",
}

// goldenCase runs one cell of the matrix and returns its digest.
func goldenCase(trigger string, emi bool, jitter float64, mf *MeasurementFault) string {
	cfg := DefaultConfig()
	cfg.Parallelism = 1
	cfg.PhaseJitterRMS = jitter
	var mod analog.Modulator
	switch trigger {
	case "clock-mod":
		mod = analog.NewTriangleModulator(cfg.ModFrequency(), cfg.ModAmplitude, cfg.ModTauRatio)
	case "fifo":
		cfg.Trigger = TriggerFIFO
	case "none":
		cfg.Trigger = TriggerNone
	}
	s := rng.New(2024)
	line := txline.New("golden", txline.DefaultConfig(), s.Child("line"))
	r := MustNew(cfg, txline.DefaultProbe(), mod, s.Child("itdr"))
	if mf != nil {
		r.SetInjector(fixedFault{*mf})
	}
	env := txline.RoomTemperature()
	if emi {
		env = txline.EMI(1.5e-3, 100e6)
	}
	h := sha256.New()
	var buf [8]byte
	a := NewArena()
	for i := 0; i < 2; i++ {
		m := r.MeasureInto(a, line, env)
		for _, v := range m.IIP.Samples {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, sat := range m.Saturated {
			if sat {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
		binary.LittleEndian.PutUint64(buf[:], uint64(m.CyclesUsed))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenIIPDigests is the bitwise oracle for the per-bin acquisition:
// every trigger mode, EMI on and off, PLL jitter on and off, and every
// fault path must keep its exact random draw sequence and float expression
// order.
func TestGoldenIIPDigests(t *testing.T) {
	var missing []string
	for _, trigger := range []string{"clock", "clock-mod", "fifo", "none"} {
		for _, emi := range []bool{false, true} {
			for _, jitter := range []float64{0, 2e-12} {
				for _, f := range goldenFaults {
					name := fmt.Sprintf("%s/emi=%t/jitter=%g/%s", trigger, emi, jitter, f.name)
					got := goldenCase(trigger, emi, jitter, f.mf)
					want, ok := goldenIIPDigests[name]
					switch {
					case !ok:
						missing = append(missing, fmt.Sprintf("\t%q: %q,", name, got))
					case got != want:
						t.Errorf("%s: digest %s, want %s", name, got, want)
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d cells have no recorded digest:", len(missing))
		for _, l := range missing {
			t.Log(l)
		}
	}
}

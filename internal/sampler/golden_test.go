package sampler

// golden_test.go pins every batched engine's trajectories symbol for
// symbol. The engines are otherwise checked only against themselves and
// the exact law, so a rewrite that changes the RNG order, the chain
// grouping, the worker-to-item assignment or a single draw would pass
// those tests; these goldens catch it. Every case must produce the same
// digests on compact and wide cells and with the conditional-CDF cache on
// and off (the plan walk is forced by building the cache under a zero
// entry cap), because the kernels are bit-identical across both
// representations and both paths.

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gibbs"
	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/spec"
	"repro/internal/state"
)

// goldenChunk is the digest of an engine after one Run chunk: an FNV-64a
// hash of every chain's configuration (chain-outer, vertex-inner, one
// byte per cell read through Lattice.Get) and the engine's progress
// counter (Updates, or Accepts for LocalMetropolis).
type goldenChunk struct {
	hash  uint64
	count int64
}

// batchGolden holds five Run(2) chunks per (dynamic, instance, B,
// workers) case.
var batchGolden = map[string][5]goldenChunk{
	"chromatic/coloring3-cycle6/B=1/w=1":        {{0x8d0591358d13cba5, 12}, {0x486c274f5427c143, 24}, {0xcd088146398ad16b, 36}, {0x95b5d93592019255, 48}, {0x3596b1c2c7a85da, 60}},
	"chromatic/coloring3-cycle6/B=1/w=3":        {{0x95b5d93592019255, 12}, {0x8d0591358d13cba5, 24}, {0x5123384f591b492c, 36}, {0x9b5010cf91e72de7, 48}, {0xc5f9ff249650364b, 60}},
	"chromatic/coloring3-cycle6/B=16/w=1":       {{0x147e17b9f91893ac, 192}, {0xcc287eda5740c90a, 384}, {0x4514a0a5185b08ab, 576}, {0x56a3180fe1e34b38, 768}, {0xb4ef166e79607eff, 960}},
	"chromatic/coloring3-cycle6/B=16/w=3":       {{0x37942be78c1d1fc7, 192}, {0xcacd8b5d5ffc7fde, 384}, {0xa126ad71c1ec4143, 576}, {0x184c1c2599bcd529, 768}, {0xffbff9fe2d195f40, 960}},
	"chromatic/coloring3-cycle6/B=300/w=1":      {{0x1ac4142f884a5884, 3600}, {0xdb1a626a6cac2e5d, 7200}, {0x7751b554587ff1d9, 10800}, {0xbe7169229e33dbac, 14400}, {0xa534fa1db1ff9e6d, 18000}},
	"chromatic/coloring3-cycle6/B=300/w=3":      {{0xccc98d876e4f0d16, 3600}, {0x7f156747fbf40b5f, 7200}, {0x2e614e56086a9f63, 10800}, {0xcf40a368a2f89a51, 14400}, {0xceaf09dd9e511e81, 18000}},
	"chromatic/coloring5-grid3/B=1/w=1":         {{0x42377833f54d06cb, 18}, {0x4a2fbf69b115dc87, 36}, {0x1ef55ac03cf46988, 54}, {0x513401ae68cb71eb, 72}, {0x107de0f3d6cb853e, 90}},
	"chromatic/coloring5-grid3/B=1/w=3":         {{0x70d91a2ad76fe338, 18}, {0xe2c895f6d9aad401, 36}, {0x15f4791d9e674bfd, 54}, {0xfcb0ed93cd4f30af, 72}, {0x55963135e4ef22c, 90}},
	"chromatic/coloring5-grid3/B=16/w=1":        {{0x71f0d9f5731c4e51, 288}, {0x4b8cba569b838896, 576}, {0xa3d31b375c1f2425, 864}, {0x8d88987d182f479f, 1152}, {0xedba582e322315b0, 1440}},
	"chromatic/coloring5-grid3/B=16/w=3":        {{0x5d64dc3496d6f889, 288}, {0x3a39a2414d820f3e, 576}, {0x45f89eed34d65744, 864}, {0xa57d9eb7395c2d50, 1152}, {0x8fc243b6f429715e, 1440}},
	"chromatic/coloring5-grid3/B=300/w=1":       {{0xc2fc5651fb28a5df, 5400}, {0xa0d44eef9b9ebe95, 10800}, {0xf45a71bea52d9208, 16200}, {0xd5937fd34ca3d4c5, 21600}, {0x96d1015995af4bae, 27000}},
	"chromatic/coloring5-grid3/B=300/w=3":       {{0x8534d697e22ded12, 5400}, {0xbb7e949599bef296, 10800}, {0x75265324625b4b24, 16200}, {0xc72d40c0be61b4cb, 21600}, {0xa188e6c262f1cf76, 27000}},
	"chromatic/hardcore-torus4/B=1/w=1":         {{0x1296db2e2fb80637, 32}, {0x5b6c25ebb83c8e12, 64}, {0xc3f8578c6b166595, 96}, {0xb0d690b4d7a73eab, 128}, {0x5fe54086a9a9c205, 160}},
	"chromatic/hardcore-torus4/B=1/w=3":         {{0x42d148bf1f3aacb0, 32}, {0x1a10ffddc80567c5, 64}, {0xfc7e800c054f819c, 96}, {0x9d8dfb9e52f917e4, 128}, {0x42d9482908c6fe92, 160}},
	"chromatic/hardcore-torus4/B=16/w=1":        {{0x341bacd717d2b99d, 512}, {0xaf2f25f9f80ba34b, 1024}, {0xe01befd07ca3deba, 1536}, {0xe541bdeb952ba8f1, 2048}, {0xa0ba84ab7c921ca5, 2560}},
	"chromatic/hardcore-torus4/B=16/w=3":        {{0x7ededd984a077658, 512}, {0x3a9edf75ff2ada64, 1024}, {0xe5a09756ee394500, 1536}, {0x4e91dab0ec82c8c7, 2048}, {0x5e6f5f0a7b876c46, 2560}},
	"chromatic/hardcore-torus4/B=300/w=1":       {{0x2b0bec40f251b65e, 9600}, {0x3c7009b295319685, 19200}, {0xc2c19db1a8a5f421, 28800}, {0xdd2736c513fa5f62, 38400}, {0xf34450dc46ed75a5, 48000}},
	"chromatic/hardcore-torus4/B=300/w=3":       {{0x3eec43919af4a776, 9600}, {0x29fe33c623b5c879, 19200}, {0xe44733720949d365, 28800}, {0x62d5503626e22cb8, 38400}, {0xf5f95a397914914, 48000}},
	"chromatic/wcsp-explicit-pinned/B=1/w=1":    {{0xb5d447774c805975, 6}, {0x84715590455191d2, 12}, {0xb5d445774c80560f, 18}, {0x447f637f98e8fbd9, 24}, {0x8474b99045547195, 30}},
	"chromatic/wcsp-explicit-pinned/B=1/w=3":    {{0xb5d447774c805975, 6}, {0x84715590455191d2, 12}, {0xb5d445774c80560f, 18}, {0x447f637f98e8fbd9, 24}, {0x8474b99045547195, 30}},
	"chromatic/wcsp-explicit-pinned/B=16/w=1":   {{0x43a36672f477dfcb, 96}, {0xfb3cea0d07e85df4, 192}, {0x1d2de9e967a552db, 288}, {0x70c2fb119d34bac, 384}, {0x7f2f376066da9b63, 480}},
	"chromatic/wcsp-explicit-pinned/B=16/w=3":   {{0x43a36672f477dfcb, 96}, {0xfb3cea0d07e85df4, 192}, {0x1d2de9e967a552db, 288}, {0x70c2fb119d34bac, 384}, {0x7f2f376066da9b63, 480}},
	"chromatic/wcsp-explicit-pinned/B=300/w=1":  {{0x4dc90b7e0b3872, 1800}, {0x16c735de42774da9, 3600}, {0xd5897af9674c8fb8, 5400}, {0x5a6a8c3d630895c5, 7200}, {0x20c530bbbe786d7, 9000}},
	"chromatic/wcsp-explicit-pinned/B=300/w=3":  {{0x5023997733cc9bf8, 1800}, {0xd8ff453e26c599d7, 3600}, {0x6fd0222caebb05dc, 5400}, {0x8fba017bdb138bb0, 7200}, {0x6f18df36be182bde, 9000}},
	"luby/coloring3-cycle6/B=1/w=1":             {{0x93ea3bbf04ca8ab0, 4}, {0xcd01b44639850966, 8}, {0xcd01b44639850966, 11}, {0xc4516f46349747cf, 15}, {0xcd088146398ad16b, 18}},
	"luby/coloring3-cycle6/B=1/w=3":             {{0xb9e324cfa27e0b37, 4}, {0xb9e324cfa27e0b37, 7}, {0xb9e324cfa27e0b37, 11}, {0xd39959ccef8e443, 15}, {0xd39959ccef8e443, 19}},
	"luby/coloring3-cycle6/B=16/w=1":            {{0x9a15251c51748a65, 62}, {0x3abf36856ea9d280, 131}, {0x88436c15bae2e046, 198}, {0x91f39e5a41a035ec, 264}, {0xce837c41a928251d, 328}},
	"luby/coloring3-cycle6/B=16/w=3":            {{0xe488f9dbc6c5841, 64}, {0x508c14d842905b70, 128}, {0x359476ca90e245c6, 193}, {0x7e3c07c888ab8398, 252}, {0x1218cf08c2c68c42, 315}},
	"luby/coloring3-cycle6/B=300/w=1":           {{0x55044978192fe2f5, 1206}, {0x11f2aec77898e32f, 2407}, {0x24ffa7e432aaf033, 3605}, {0xe4a472d00c7d9692, 4818}, {0xee0e3e0c1366a728, 6033}},
	"luby/coloring3-cycle6/B=300/w=3":           {{0x4cfb90a742c6c083, 1211}, {0x6ff6b8e7eb89e47f, 2411}, {0x835785d2b4f1d38b, 3613}, {0x921d0077004a0df1, 4792}, {0x5805bcd79e773c92, 5979}},
	"luby/coloring5-grid3/B=1/w=1":              {{0x42fe0b2ee8fef904, 6}, {0xc07efbca35cf983b, 10}, {0xa630dc8ebdac7e76, 14}, {0xef7be36189ceebfd, 19}, {0x2374c361a73ee099, 25}},
	"luby/coloring5-grid3/B=1/w=3":              {{0x153dc7ed934f16a4, 6}, {0x6879ac1f21bc338f, 10}, {0xf3961a3c556133e5, 16}, {0xf3961a3c556133e5, 22}, {0xf38f4e3c555b6d93, 28}},
	"luby/coloring5-grid3/B=16/w=1":             {{0xff43f9e83a7ff2d2, 84}, {0x36b77de738b8abbd, 166}, {0xf6c04f655e9913de, 245}, {0x3be009578d2309bb, 326}, {0xc4844d71e4778b4e, 404}},
	"luby/coloring5-grid3/B=16/w=3":             {{0xca0b45c27258dca8, 89}, {0xd3b4824935098e5, 166}, {0x7c66cabf60f9b5c5, 242}, {0x11a1d50b1af51f8c, 318}, {0x1d0b723c1b6caa20, 402}},
	"luby/coloring5-grid3/B=300/w=1":            {{0x229444daf4b622ed, 1526}, {0xe52b7e2af20afdba, 3046}, {0xb813f20fad8c66d, 4573}, {0x8ee9bca4cbde5e47, 6098}, {0x48301f0c3fa4403a, 7604}},
	"luby/coloring5-grid3/B=300/w=3":            {{0xc7fd4a37fa25d8ba, 1490}, {0x90adc4ae659ee787, 2992}, {0xbfc2caf73212857, 4522}, {0xbda71c3718150506, 6065}, {0x1be14c3a11d644a3, 7550}},
	"luby/hardcore-torus4/B=1/w=1":              {{0xf4b5ca5bcc646e52, 4}, {0x3452c05f74100d15, 13}, {0x3452c05f74100d15, 17}, {0xf9a539e9c5e3dc8a, 23}, {0xf4b5ca5bcc646e52, 28}},
	"luby/hardcore-torus4/B=1/w=3":              {{0x582f17a35804fe8f, 8}, {0xed7248df6f634853, 13}, {0x10dbe4ac8171821a, 20}, {0x3d847490baa10de4, 26}, {0xb99087dbe5f73345, 30}},
	"luby/hardcore-torus4/B=16/w=1":             {{0xbb27b1f9f80d4722, 105}, {0x247e18ca06cde4d4, 206}, {0x582fa40ee1899631, 305}, {0xd657575b514d6fd0, 405}, {0x4dc1b4c247a81e92, 505}},
	"luby/hardcore-torus4/B=16/w=3":             {{0xa6d94824a50fe264, 98}, {0x10167a9e3fedc970, 192}, {0xa05827a1fd031e4e, 288}, {0x36f4424a4b7205ec, 385}, {0x85b42bd825cf5d24, 486}},
	"luby/hardcore-torus4/B=300/w=1":            {{0x694d191ca167b681, 1923}, {0x147ec4051bdc1135, 3863}, {0x1660167c6d2c4dfd, 5757}, {0xb2b33079f979c0f4, 7668}, {0xfe140ca01be6e318, 9581}},
	"luby/hardcore-torus4/B=300/w=3":            {{0xa7add696e07bbf9, 1956}, {0x3d065b2536a46547, 3865}, {0x628e76ed7c6165ed, 5794}, {0x62694b407f0cf8c3, 7695}, {0x5bf158f1ad165be2, 9573}},
	"luby/wcsp-explicit-pinned/B=1/w=1":         {{0x447bfb7f98e6154a, 2}, {0xb5d445774c80560f, 4}, {0xb5d447774c805975, 6}, {0xb5cd77774c7a8c57, 8}, {0xb5d445774c80560f, 10}},
	"luby/wcsp-explicit-pinned/B=1/w=3":         {{0xb5d447774c805975, 2}, {0x447bf97f98e611e4, 4}, {0x84715590455191d2, 6}, {0x447f637f98e8fbd9, 8}, {0x447f637f98e8fbd9, 10}},
	"luby/wcsp-explicit-pinned/B=16/w=1":        {{0x13eb5993fc39215, 32}, {0x3cd74f62df799661, 64}, {0x9fff090dcff1ad4e, 96}, {0xfcb1a2b3dc1ce597, 128}, {0x6e7fa4adef4be8ef, 160}},
	"luby/wcsp-explicit-pinned/B=16/w=3":        {{0x7246e627edc2ee46, 32}, {0x2d6b14f65a335c91, 64}, {0xb36a8e35a236d1d0, 96}, {0xb1db35f86e54b62b, 128}, {0x2ba4729e34eb5f8e, 160}},
	"luby/wcsp-explicit-pinned/B=300/w=1":       {{0x623d6edf59c538cd, 600}, {0xc191f63054dffdaf, 1200}, {0xffef8e55c5c235f3, 1800}, {0xe293eae905d0765a, 2400}, {0x9d781e32b8543190, 3000}},
	"luby/wcsp-explicit-pinned/B=300/w=3":       {{0xc5371445213a9d79, 600}, {0xf4d81a7bbfea62cd, 1200}, {0x28e305e897e51a36, 1800}, {0x253c8d8ff95ad5d6, 2400}, {0x34e102923d1a4d4, 3000}},
	"metropolis/coloring3-cycle6/B=1/w=1":       {{0x93ea3bbf04ca8ab0, 3}, {0x93ea3bbf04ca8ab0, 4}, {0x93ea3bbf04ca8ab0, 6}, {0x93ea3bbf04ca8ab0, 7}, {0x93ea3bbf04ca8ab0, 7}},
	"metropolis/coloring3-cycle6/B=1/w=3":       {{0xd3df93cfb13603d2, 3}, {0x8d0c5c358d199044, 7}, {0x8d0c5c358d199044, 7}, {0xcd088046398acfb8, 12}, {0xcd088046398acfb8, 14}},
	"metropolis/coloring3-cycle6/B=16/w=1":      {{0x8ae988cb150b866c, 34}, {0x1103397ffd95c599, 76}, {0xc7174cfe337c2bbe, 103}, {0xbb8cb5f084932bf9, 136}, {0xf3023a6c3df22226, 168}},
	"metropolis/coloring3-cycle6/B=16/w=3":      {{0xd72ea1ff2b8911c7, 47}, {0x3c928a63c714046f, 78}, {0x84acf15e6b2ca62, 114}, {0x9ca34e5e4f6fa41f, 151}, {0x68d4c40db88ad3d8, 193}},
	"metropolis/coloring3-cycle6/B=300/w=1":     {{0xb88519483bb1a8d4, 654}, {0x4388926a9d242a99, 1288}, {0xe82019abe5886127, 1943}, {0x2e5d230fe1d3bf9d, 2545}, {0x5c7c6b4459a118c, 3127}},
	"metropolis/coloring3-cycle6/B=300/w=3":     {{0xd59cd7819e7dd1ff, 636}, {0xfe7a33f2882bb809, 1212}, {0x76b7b25928e692c8, 1824}, {0x39a470af9023fa9, 2478}, {0x3cee49fb7a0f186c, 3088}},
	"metropolis/coloring5-grid3/B=1/w=1":        {{0x6999ea154273d09, 11}, {0x823233a0038a1a76, 14}, {0x823233a0038a1a76, 15}, {0x5f560930c9ecba2e, 21}, {0xdf36127808c32198, 27}},
	"metropolis/coloring5-grid3/B=1/w=3":        {{0xb9f608f75042f13e, 9}, {0xed6ce6dc80e871ab, 13}, {0xccffc864a832742d, 22}, {0x9f193a6a6787baa6, 29}, {0x3e0fb3897aa9c6f2, 35}},
	"metropolis/coloring5-grid3/B=16/w=1":       {{0x233a7d68eea33f3c, 76}, {0x6737d5c9d5a333ac, 154}, {0x2b027386bbba402f, 222}, {0x91d3b1df60f3f94a, 281}, {0x1244492d0955b1d1, 339}},
	"metropolis/coloring5-grid3/B=16/w=3":       {{0xc72418779abe0537, 86}, {0xf542e06d4cd51422, 143}, {0x12ec3be8e4682d0d, 211}, {0x7c14cf44d7a7aa56, 288}, {0x7f7d1a42c5c2e7e, 339}},
	"metropolis/coloring5-grid3/B=300/w=1":      {{0x7de7b0c01a7e34a3, 1393}, {0x92031013aa0e4a9b, 2684}, {0x7597531b0fc4754e, 3905}, {0xa66e2ffcb97ecfb0, 5152}, {0x71842e2c3cc29860, 6388}},
	"metropolis/coloring5-grid3/B=300/w=3":      {{0x89671546f6f717b2, 1425}, {0xa2feebb1b66d51b, 2732}, {0xb5086769b15350c6, 3954}, {0x71e99ca47fa9cee6, 5236}, {0xd3a28c600d081108, 6543}},
	"metropolis/hardcore-torus4/B=1/w=1":        {{0x88201fb960ff6465, 17}, {0x88201fb960ff6465, 31}, {0x88201fb960ff6465, 50}, {0x51c72af4d13a6e6d, 72}, {0x51c72af4d13a6e6d, 89}},
	"metropolis/hardcore-torus4/B=1/w=3":        {{0x88201fb960ff6465, 15}, {0xead1131ed470186d, 33}, {0xead1131ed470186d, 43}, {0xead1131ed470186d, 55}, {0xead1131ed470186d, 72}},
	"metropolis/hardcore-torus4/B=16/w=1":       {{0xd9899891ff17cbf0, 260}, {0xae0c3182f9c2e335, 513}, {0x35bf89e4739f4381, 740}, {0x32a767381ccf4004, 959}, {0xa37749bd48f3c081, 1204}},
	"metropolis/hardcore-torus4/B=16/w=3":       {{0x266b53b44d3f4f59, 275}, {0x579cdf2d186694be, 522}, {0x32f1277d1f68036b, 776}, {0x5a6abec54b6c1613, 1028}, {0x735fea8c4cd1e62, 1266}},
	"metropolis/hardcore-torus4/B=300/w=1":      {{0xb00166ca472ed293, 4930}, {0xaf3e4aa03d1c635f, 9739}, {0x9ee2a085dc474a8a, 14139}, {0xb1d54dfe5ca6a448, 18523}, {0x663c40996e764d0e, 22918}},
	"metropolis/hardcore-torus4/B=300/w=3":      {{0x5ca73e4e75a5eb2d, 4994}, {0xad3cf2e40e122cce, 9674}, {0xb39637c5646f3d1d, 14194}, {0x62c50be1c029e167, 18590}, {0x4cddcc2c6872b30, 22915}},
	"metropolis/wcsp-explicit-pinned/B=1/w=1":   {{0x447f637f98e8fbd9, 4}, {0x84781f90455754be, 8}, {0xb5d447774c805975, 14}, {0xb5cd77774c7a8c57, 18}, {0xb5d0dd774c7d6f80, 24}},
	"metropolis/wcsp-explicit-pinned/B=1/w=3":   {{0x447f617f98e8f873, 4}, {0xb5cd77774c7a8c57, 8}, {0x447bfb7f98e6154a, 14}, {0xb5cd77774c7a8c57, 20}, {0x8471539045518e6c, 24}},
	"metropolis/wcsp-explicit-pinned/B=16/w=1":  {{0xfd36531db9219a15, 78}, {0xbdc970e4b24941d7, 152}, {0xdf606d2ba232e647, 228}, {0xa3e1489ac59d8a80, 302}, {0xbb1cfc5557fd87c2, 366}},
	"metropolis/wcsp-explicit-pinned/B=16/w=3":  {{0x59a2bf72c99524da, 88}, {0xb783fad9462c4bb8, 160}, {0x3293cab3a99be957, 232}, {0xe2dcc40325c06567, 312}, {0x2203260555dc0605, 398}},
	"metropolis/wcsp-explicit-pinned/B=300/w=1": {{0x8718741f2879ef7d, 1530}, {0xe4fa4e917aea14d3, 2954}, {0xaacb300da55aba0e, 4426}, {0x7d76bfd9ef942240, 5832}, {0x311d8e8428ff0d78, 7272}},
	"metropolis/wcsp-explicit-pinned/B=300/w=3": {{0x6a3465ccbad7f63e, 1524}, {0x523b078eab9ae59e, 3010}, {0xc625f285e92bd785, 4490}, {0xf6cee3889a36b67e, 5934}, {0xb1a4f72552546892, 7342}},
}

// goldenInstances builds the four instances of TestBatchGolden fresh on
// every call, so each case compiles (and caches) its own engine.
func goldenInstances(t *testing.T) map[string]*gibbs.Instance {
	t.Helper()
	out := map[string]*gibbs.Instance{}
	hc, err := model.Hardcore(graph.Torus(4, 4), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	col, err := model.Coloring(graph.Grid(3, 3), 5)
	if err != nil {
		t.Fatal(err)
	}
	col3, err := model.Coloring(graph.Cycle(6), 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*gibbs.Spec{"hardcore-torus4": hc, "coloring5-grid3": col, "coloring3-cycle6": col3} {
		in, err := gibbs.NewInstance(s, nil)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = in
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", "corpus", "wcsp-explicit-pinned.json"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := spec.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	out["wcsp-explicit-pinned"] = b.Instance
	return out
}

// digest hashes every chain's configuration of the engine.
func digest(t *testing.T, m MultiChain) uint64 {
	t.Helper()
	lat := m.Lattice()
	h := fnv.New64a()
	cell := make([]byte, 1)
	for c := 0; c < lat.Chains(); c++ {
		for v := 0; v < lat.N(); v++ {
			x := lat.Get(v, c)
			if x < 0 || x > 255 {
				t.Fatalf("cell (%d, %d) = %d", v, c, x)
			}
			cell[0] = byte(x)
			h.Write(cell)
		}
	}
	return h.Sum64()
}

// goldenDynamics are the batched dynamics TestBatchGolden pins.
var goldenDynamics = []string{"chromatic", "luby", "metropolis"}

// TestBatchGolden runs every batched engine on hardcore Torus(4,4), the
// 5-colouring of Grid(3,3), the corpus's pinned WCSP (q = 3, a unary
// prior, pair and arity-3 factors, a pin) and the 3-colouring of Cycle(6)
// (the q = 3 pair-only draw) at B ∈ {1, 16, 300} — B = 300 leaves a ragged
// last chain group at every q here — with 1 and 3 workers, and checks the
// digest after each of five Run(2) chunks against the recorded goldens, on
// compact and wide cells, with the cache on and off. The multi-worker
// cases pin each engine's worker-count rule, its per-worker streams and
// its item-to-worker assignment.
func TestBatchGolden(t *testing.T) {
	for _, name := range []string{"hardcore-torus4", "coloring5-grid3", "wcsp-explicit-pinned", "coloring3-cycle6"} {
		for _, B := range []int{1, 16, 300} {
			for _, workers := range []int{1, 3} {
				for _, wide := range []bool{false, true} {
					for _, cache := range []bool{true, false} {
						sub := fmt.Sprintf("%s/B=%d/w=%d/wide=%v/cache=%v", name, B, workers, wide, cache)
						t.Run(sub, func(t *testing.T) {
							for _, dyn := range goldenDynamics {
								t.Run(dyn, func(t *testing.T) {
									key := fmt.Sprintf("%s/%s/B=%d/w=%d", dyn, name, B, workers)
									want, ok := batchGolden[key]
									got := runGolden(t, dyn, name, B, workers, wide, cache)
									if !ok {
										t.Fatalf("no golden; recorded run: %q: {%s},", key, fmtChunks(got))
									}
									for i := range got {
										if got[i] != want[i] {
											t.Fatalf("chunk %d: got {%#x, %d}, want {%#x, %d}",
												i, got[i].hash, got[i].count, want[i].hash, want[i].count)
										}
									}
								})
							}
						})
					}
				}
			}
		}
	}
}

// runGolden builds one case through the registry and returns its five
// chunk digests.
func runGolden(t *testing.T, dyn, name string, B, workers int, wide, cache bool) [5]goldenChunk {
	t.Helper()
	in := goldenInstances(t)[name]
	if !cache {
		restore := gibbs.SetCondCapForTest(0, 0)
		defer restore()
	}
	eng := in.Spec.Compiled()
	st := eng.CondStats()
	if cache && st.Cached == 0 || !cache && st.Cached != 0 {
		t.Fatalf("cond cache covers %d of %d vertices, want cache=%v", st.Cached, st.Total, cache)
	}
	restoreCells := func() {}
	if wide {
		restoreCells = state.SetCompactLimitForTest(0)
	}
	s, err := Create(dyn, in, Options{Chains: B, Seed: 17})
	restoreCells()
	if err != nil {
		t.Fatal(err)
	}
	m := s.(MultiChain)
	if m.Lattice().Compact() == wide {
		t.Fatalf("lattice compact=%v, want %v", m.Lattice().Compact(), !wide)
	}
	m.(interface{ SetWorkers(int) }).SetWorkers(workers)
	count := func() int64 {
		switch e := m.(type) {
		case interface{ Updates() int64 }:
			return e.Updates()
		case interface{ Accepts() int64 }:
			return e.Accepts()
		}
		t.Fatalf("%s engine has no progress counter", dyn)
		return 0
	}
	var got [5]goldenChunk
	for i := range got {
		if err := m.Run(2); err != nil {
			t.Fatal(err)
		}
		got[i] = goldenChunk{digest(t, m), count()}
	}
	return got
}

func fmtChunks(c [5]goldenChunk) string {
	s := ""
	for i, x := range c {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("{%#x, %d}", x.hash, x.count)
	}
	return s
}

package litho

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"postopc/internal/geom"
)

// Golden-SHA pins of the aerial images of both models. The Abbe hashes
// were recorded from the pre-vek complex128 kernel path; the SoA kernel
// layer (internal/dsp/vek) preserves the exact floating-point operation
// sequence of that code, so the images must stay byte-identical — across
// the refactor AND across kernel paths and GOAMD64 build levels (the
// kernels contain no fused operations, see the no-FMA contract in
// DESIGN.md "SIMD inner loops"). CI runs these tests on the AVX2 path at
// the default build and at GOAMD64=v3, and on the Go reference loops under
// -tags purego; a hash change on any of them means a kernel reordered,
// fused or otherwise perturbed a float operation.

// goldenAerialSHA256 hashes the image: dimensions, background and every
// sample as its exact IEEE-754 bit pattern, little-endian.
func goldenAerialSHA256(im *Image) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(im.Nx))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(im.Ny))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], math.Float64bits(im.Background))
	h.Write(buf[:])
	for _, v := range im.Data {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestAbbeAerialGoldenSHA locks the nominal and defocused Abbe images of
// three masks to their recorded hashes. The 256×256 grating pads to
// nothing; the two gate-window shapes pad to 256×512 and 512×512, so the
// band-limited inverse keeps only part of the columns and rows it
// transforms, and a crop that kept the wrong ones changes a hash. The
// defocused corner exercises the unfolded full source sum and the complex
// pupil phases; nominal exercises Hermitian folding. Together they cover
// every vek kernel: transmission fill, forward band-selected butterflies,
// the filter apply, the inverse band-limited butterflies with their 1/N
// scaling, and the intensity accumulate.
func TestAbbeAerialGoldenSHA(t *testing.T) {
	golden := map[string]string{
		"grating256/nominal":    "c7d23219c1727153264c63589ed8da02f118e5143339dde5992efd6bc6f98829",
		"grating256/defocus120": "db29a873f1b6e4d818dd2221ec2f6401b239ca668b952e3d8ccf7d014b90b0b3",
		"window211/nominal":     "82e113a3c9ba53f1aef029547f4c05cb9f369156c55b8f1b8d963fb4c06b5527",
		"window211/defocus120":  "6f6e791e44b6248e167a74e94ec66b68433ff94a99590b8df70e36b93e76a296",
		"window289/nominal":     "8f25361b4f7d34f4a6f387ed36048aca427084987d856e4073052254b6e372d1",
		"window289/defocus120":  "e651253ed0cc2bf1848d987fb5b0ea3bad20d5c0d7f6b6497f507ed374c4d4e0",
	}
	m := newAbbeT(t)
	masks := map[string]*geom.Raster{
		"grating256": benchMask256(),
		"window211":  windowMask(211),
		"window289":  windowMask(289),
	}
	for maskName, mask := range masks {
		for cName, c := range map[string]Corner{
			"nominal":    Nominal,
			"defocus120": {DefocusNM: 120, Dose: 1},
		} {
			name := maskName + "/" + cName
			im, err := m.Aerial(mask, c)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenAerialSHA256(im)
			if want := golden[name]; got != want {
				t.Errorf("%s aerial SHA-256 = %s, want %s\n"+
					"(a mismatch means a kernel changed its floating-point op sequence;"+
					" see the bit-identity contract in DESIGN.md)", name, got, want)
			}
		}
	}
}

// windowMask is a gate-window-shaped mask, nx×324 px at 10 nm: a vertical
// grating with an off-centre horizontal bar and contact. Production
// windows are 157–327 × 324 px, so they pad to 256×512 (nx <= 256) or
// 512×512 and the kept image is a corner of the padded grid.
func windowMask(nx int) *geom.Raster {
	w := geom.Coord(nx) * 10
	ra := geom.NewRaster(geom.R(-w/2, -1620, w-w/2, 1620), 10)
	la := LineArray{WidthNM: 90, PitchNM: 250, Count: nx / 30, LengthNM: 2400}
	for _, r := range la.Rects() {
		ra.AddRect(r)
	}
	ra.AddRect(geom.R(-w/2+100, 1300, w/2-300, 1420))
	ra.AddRect(geom.R(230, -1400, 355, -1260))
	ra.Clamp()
	return ra
}

// tallMask251 is a strip-window-shaped mask, 251×753 px: its width is not
// a multiple of 4 or 16, so the blur's row and column kernels run their
// 16-wide blocks, the 4-wide loop and the overlapping last block. A
// horizontal bar and an off-centre
// contact break the grating's symmetry.
func tallMask251() *geom.Raster {
	ra := geom.NewRaster(geom.R(-1255, -3765, 1255, 3765), 10)
	la := LineArray{WidthNM: 90, PitchNM: 250, Count: 9, LengthNM: 6400}
	for _, r := range la.Rects() {
		ra.AddRect(r)
	}
	ra.AddRect(geom.R(-1100, 3300, 900, 3420))
	ra.AddRect(geom.R(430, -2900, 555, -2760))
	ra.Clamp()
	return ra
}

// TestGaussianAerialGoldenSHA locks the fast model's images to hashes
// recorded before its blur was vectorized. It covers the dual model at the
// PDK calibration (σ2 = 200 nm, w = −0.10) and at w = +0.15, clear and
// dark field (the dark field pads with 0), nominal focus and 120 nm
// defocus, on the 256×256 grating and on the 251×753 strip-shaped mask.
func TestGaussianAerialGoldenSHA(t *testing.T) {
	golden := map[string]string{
		"w+0.15/clear/grating256/defocus120": "2c7a4a4c46c4961c456d7e54e0c8bdf8ab0428de15b3e24e85291e1eff8346d2",
		"w+0.15/clear/grating256/nominal":    "5cf49669094184649edcead5ec0736a1935d08523551b8780fd2fa40f4c1515f",
		"w+0.15/clear/tall251/defocus120":    "989da9b7ce39e7bca5ad8e445472ecb15ae9f8732abd269f8a519ccd0cd9c816",
		"w+0.15/clear/tall251/nominal":       "7e7674cb7f37c2a1cfb1e73804dc79e98248861d6aec9b38f3518f7be19bc39b",
		"w+0.15/dark/grating256/defocus120":  "d1c683394152f9c51fdebb4c45806ef78a082f636602f377703add23f729e3f0",
		"w+0.15/dark/grating256/nominal":     "9c0508b097973a5b70a9f0a53edc18ecba5baef6e7379ee458ba451c0d3da22f",
		"w+0.15/dark/tall251/defocus120":     "c7cf8926b16b66e3c5adc35e4a8b5fb89b9ceb124aabbf914c7e6b01473c60d4",
		"w+0.15/dark/tall251/nominal":        "136f2dcf68fb02722739ec9a7f6926e3062bd42c48110e50b0da47995d336a24",
		"w-0.10/clear/grating256/defocus120": "3bd71be73fd3e9dabe242fd3529934ffcf614841062bea36b711d5a4883943c8",
		"w-0.10/clear/grating256/nominal":    "d0c8f4906d3ba245619f6afc0180d194f4c42e71e17bd94c055a79d48ebeb23c",
		"w-0.10/clear/tall251/defocus120":    "20757aa92afce2e39b11609b0b55c7c5e8da04b0ac218a0ae5292eb4c4f7bd5c",
		"w-0.10/clear/tall251/nominal":       "7c1da8d9758f24b897733eaddf5851e5d30603b976dfd4dd48c748ab5dda8335",
		"w-0.10/dark/grating256/defocus120":  "34ab569e561e72585049576ef1bc392481a48e021efd12d0bfc2ee00a605be71",
		"w-0.10/dark/grating256/nominal":     "be419605099499178afc4bae7ae04dd17e5c347c2a05f1c43da2741fcd50d931",
		"w-0.10/dark/tall251/defocus120":     "b69a3ef2d9f7dc8c24173b0cfee3e713ff38f405f2633e32e65113bd21628310",
		"w-0.10/dark/tall251/nominal":        "e41942a74c034aa1ffac2fa3cd52d155f7695a16e7eef72845acfa4761f6dfe6",
	}
	masks := map[string]*geom.Raster{"grating256": benchMask256(), "tall251": tallMask251()}
	for _, w := range []float64{-0.10, 0.15} {
		for polName, pol := range map[string]Polarity{"clear": ClearField, "dark": DarkField} {
			r := testRecipe()
			r.Polarity = pol
			m, err := NewGaussianDual(r, 200, w)
			if err != nil {
				t.Fatal(err)
			}
			for maskName, mask := range masks {
				for cName, c := range map[string]Corner{
					"nominal":    Nominal,
					"defocus120": {DefocusNM: 120, Dose: 1},
				} {
					name := fmt.Sprintf("w%+.2f/%s/%s/%s", w, polName, maskName, cName)
					im, err := m.Aerial(mask, c)
					if err != nil {
						t.Fatal(err)
					}
					if got, want := goldenAerialSHA256(im), golden[name]; got != want {
						t.Errorf("%s aerial SHA-256 = %s, want %s", name, got, want)
					}
				}
			}
		}
	}
}

"""Neural inference on the photonic tensor core.

The workload the paper's introduction motivates: a small MLP is trained
in floating point on procedurally generated 4x4 digit glyphs, then
deployed on the simulated photonic tensor core — 3-bit pSRAM weights,
WDM analog matmuls, eoADC readout — and evaluated against the float
baseline across ADC precisions (3-bit native vs the higher-precision
extension).

Run:  python examples/neural_inference.py
"""

from repro import PhotonicTensorCore
from repro.ml import MLP, PhotonicMLP, procedural_digits, train_test_split


def main() -> None:
    print("=== dataset: procedural 4x4 digit glyphs (10 classes) ===")
    features, labels = procedural_digits(samples_per_class=30, noise=0.10)
    x_train, x_test, y_train, y_test = train_test_split(features, labels)
    print(f"{len(x_train)} training / {len(x_test)} test samples, "
          f"{features.shape[1]} features")

    print("\n=== float training (software) ===")
    mlp = MLP(in_features=16, hidden_features=24, classes=10)
    losses = mlp.train(x_train, y_train, epochs=300, learning_rate=0.3)
    float_accuracy = mlp.accuracy(x_test, y_test)
    print(f"loss {losses[0]:.3f} -> {losses[-1]:.3f}, "
          f"float test accuracy {float_accuracy * 100:.1f} %")

    subset = slice(0, 40)
    print("\n=== photonic inference vs eoADC precision ===")
    print("(differential 3-bit pSRAM weights; per-layer ADC range calibration)")
    print(f"{'ADC bits':>8}  {'accuracy':>9}  {'vs float':>9}")
    for adc_bits in (3, 4, 6):
        core = PhotonicTensorCore(rows=16, columns=16, adc_bits=adc_bits)
        photonic = PhotonicMLP(mlp, core, calibration_batch=x_train[:40])
        accuracy = photonic.accuracy(x_test[subset], y_test[subset])
        print(f"{adc_bits:>8}  {accuracy * 100:>8.1f} %  "
              f"{(accuracy - float_accuracy) * 100:>+8.1f} %")
    print("\n(3-bit output quantization is the paper's native readout; "
          "higher precisions correspond to its high-Q / shift-and-add "
          "extension path)")


if __name__ == "__main__":
    main()

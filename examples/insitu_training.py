"""In-situ training with 20 GHz photonic weight updates.

The paper's conclusion claims the multi-GHz pSRAM updates suit in-situ
training.  This example trains a linear classifier whose forward pass
runs photonically: every gradient step re-streams the quantized weight
matrix into the pSRAM arrays, and the ledger prices those updates at
0.5 pJ per flipped bitcell — affordable exactly because the write path
is this fast and cheap.

Run:  python examples/insitu_training.py
"""

from repro import PhotonicTensorCore
from repro.ml import InSituTrainer, gaussian_blobs, train_test_split


def main() -> None:
    print("=== task: 3-class Gaussian blobs, 8 features ===")
    features, labels = gaussian_blobs(
        samples_per_class=25, classes=3, features=8, spread=0.6
    )
    x_train, x_test, y_train, y_test = train_test_split(features, labels)
    scale = features.max()
    x_train, x_test = x_train / scale, x_test / scale

    core = PhotonicTensorCore(rows=3, columns=8, adc_bits=6)
    trainer = InSituTrainer(
        core, in_features=8, classes=3, learning_rate=0.25, gain=3.0
    )
    print(f"initial photonic accuracy: "
          f"{trainer.accuracy(x_test, y_test) * 100:.1f} %")

    print("\n=== in-situ training (photonic forward, 20 GHz updates) ===")
    log = trainer.fit(x_train, y_train, epochs=6)
    for epoch, (loss, accuracy, switches) in enumerate(
        zip(log.losses, log.accuracies, log.weight_switch_events)
    ):
        print(f"epoch {epoch}: loss {loss:.3f}, train accuracy "
              f"{accuracy * 100:5.1f} %, cumulative bitcell switches {switches}")

    print(f"\ntest accuracy after training: "
          f"{trainer.accuracy(x_test, y_test) * 100:.1f} %")
    print(f"total weight-update energy : {trainer.update_energy() * 1e9:.2f} nJ "
          "(0.5 pJ per switched bitcell)")
    print(f"matrix re-stream rate bound: "
          f"{trainer.updates_per_second_bound() / 1e9:.1f} G updates/s "
          "(vs ~Hz-kHz for the PCM/WaveShaper macros of Table I)")


if __name__ == "__main__":
    main()

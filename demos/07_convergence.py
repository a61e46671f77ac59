"""Gradient-descent training of the four loss configurations.

All four start from the same seeded angles (n = 4, L = 3) and descend with
plain gradient steps, logging loss and gradient norm each epoch.

Run:  python3 demos/07_convergence.py
"""

from plateaulab import all_configs, train

EPOCHS = 50
traces = train(all_configs(), n=4, layers=3, epochs=EPOCHS, learning_rate=0.01, seed=1)

print(f"training for {EPOCHS} epochs, lr = 0.01, shared seed")
print(f"{'configuration':<18} {'initial':>9} {'final':>9} {'final |grad|':>13}")
for trace in traces:
    print(
        f"{trace.config_name:<18} {trace.losses[0]:>9.4f} "
        f"{trace.final_loss:>9.4f} {trace.final_grad_norm:>13.4f}"
    )

print("\nloss every 10 epochs:")
header = "epoch " + "".join(f"{t.config_name[:12]:>14}" for t in traces)
print(header)
for epoch in range(0, EPOCHS + 1, 10):
    row = f"{epoch:>5} " + "".join(f"{t.losses[epoch]:>14.4f}" for t in traces)
    print(row)

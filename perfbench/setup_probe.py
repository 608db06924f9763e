"""Set-up probe: what every ``emhash train`` pays before any training work.

Run as a fresh interpreter with the arguments of an ``emhash train`` call:
``python3 setup_probe.py train --features ...``.  It imports the CLI
(numpy and scipy with it), resolves the train options and loads the
training features and labels with the CLI's own loader, then prints the
point and label counts.  The benchmark times the whole process from outside.
"""

import sys

from emhash import cli


def main(argv: list[str]) -> int:
    args = cli._build_parser().parse_args(argv)
    cfg = cli._resolve(args.subcommand, vars(args), args.config)
    dataset = cli._load_training_dataset(cfg)
    print(f"points={dataset.n} labels={len(dataset.labels)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

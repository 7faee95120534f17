#!/usr/bin/env python3
"""Count the workspace's non-test Rust lines.

Every line of every `.rs` file under `crates/*/src` and `src` counts,
except a trailing unit-test module: from the `#[cfg(test)]` line that
opens the file's last `mod tests` to the end of the file.

    python3 scripts/nontest_lines.py [REPO_ROOT]

prints the total. Simplicity changes report this number before and
after.
"""

import pathlib
import sys


def nontest_lines(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    for i in range(len(lines) - 1, 0, -1):
        if lines[i].startswith("mod tests") and lines[i - 1].strip() == "#[cfg(test)]":
            return i - 1
    return len(lines)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else ".")
    files = sorted(root.glob("crates/*/src/**/*.rs")) + sorted(root.glob("src/**/*.rs"))
    print(sum(nontest_lines(f) for f in files))


if __name__ == "__main__":
    main()

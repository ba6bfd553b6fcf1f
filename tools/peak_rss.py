#!/usr/bin/env python3
"""Runs a command and fails when its peak resident set exceeds a bound.

    tools/peak_rss.py --max-mb MB [--] COMMAND [ARG...]

The command's stdout and stderr pass through unchanged. When it exits,
one line on stderr gives its wall time and peak RSS, read from
getrusage(RUSAGE_CHILDREN) (the largest resident set of any waited-for
child; this script starts only the one). Linux carries the high-water
mark across exec, so the figure never reads below this interpreter's own
resident set at the fork (~10-15 MB): bound commands well above that.
Exit status: the command's own when it fails, 1 when it succeeds over
the bound, 0 otherwise.
"""

import argparse
import resource
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--max-mb", type=float, required=True,
                        help="fail when the peak RSS is above this (MiB)")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="the command to run and its arguments")
    args = parser.parse_args()
    command = args.command
    if command and command[0] == "--":
        command = command[1:]
    if not command:
        parser.error("no command given")
    if args.max_mb <= 0:
        parser.error("--max-mb must be positive")

    start = time.monotonic()
    try:
        code = subprocess.call(command)
    except OSError as e:
        print("peak_rss: cannot run %s: %s" % (command[0], e), file=sys.stderr)
        return 127
    wall = time.monotonic() - start
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print("peak_rss: %.2f s wall, peak RSS %.1f MB (bound %.1f MB)"
          % (wall, peak_mb, args.max_mb), file=sys.stderr)
    if code != 0:
        print("peak_rss: command exited %d" % code, file=sys.stderr)
        return code if code > 0 else 1
    if peak_mb > args.max_mb:
        print("peak_rss: peak RSS %.1f MB is over the %.1f MB bound"
              % (peak_mb, args.max_mb), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

import sys

try:
    from .cli import main

    code = main()
except KeyboardInterrupt:
    # main answers Ctrl-C itself; this covers the import and argparse set-up
    print("error: interrupted", file=sys.stderr)
    code = 130
sys.exit(code)

#!/bin/sh
# Usage: sh mutate.sh NAME SCRIPT FILE
# Print FILE edited by the sed SCRIPT: a generated mutant of shipped
# code.  Fail, naming the mutant and its script, when the edit changes
# nothing, so a pattern that no longer matches its source breaks the
# build instead of yielding an unmutated copy that the model checker
# then verifies.
if sed "$2" "$3" | cmp -s - "$3"; then
  echo "mutant $1: sed '$2' changes nothing in $3" >&2
  exit 1
fi
exec sed "$2" "$3"

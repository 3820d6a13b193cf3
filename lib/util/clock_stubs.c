/* CLOCK_MONOTONIC in nanoseconds for [Nowa_util.Clock.now_ns].  The
   native entry takes and returns unboxed words and never allocates, so
   a read is one vDSO call with no OCaml-side boxing. */

#include <time.h>
#include <caml/mlvalues.h>

intnat nowa_util_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value nowa_util_now_ns_byte(value unit)
{
  return Val_long(nowa_util_now_ns(unit));
}

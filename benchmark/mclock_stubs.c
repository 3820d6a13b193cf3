/* Monotonic nanosecond clock for the benchmark's own spans.  The runtime's
   clock is built on gettimeofday, whose microsecond resolution cannot
   resolve a single spawn_unit_on call. */

#include <time.h>
#include <caml/mlvalues.h>

intnat nowa_benchmark_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value nowa_benchmark_now_ns_byte(value unit)
{
  return Val_long(nowa_benchmark_now_ns(unit));
}

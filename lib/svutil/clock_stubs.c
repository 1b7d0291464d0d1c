/* Monotonic clock for Svutil.Deadline.now_ms: CLOCK_MONOTONIC never
   steps under NTP or settimeofday, unlike gettimeofday. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double sv_monotonic_ms(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e3 + (double)ts.tv_nsec * 1e-6;
}

CAMLprim value sv_monotonic_ms_byte(value unit)
{
  return caml_copy_double(sv_monotonic_ms(unit));
}

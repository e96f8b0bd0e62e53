/* The input loop of time_series_smooth.c over a buffer in memory, in the C
   locale: up to max ints go to out, count then value; returns the pairs read.
   Build: cc -shared -fPIC scanf_pairs.c -o scanf_pairs.so */
#define _GNU_SOURCE
#include <locale.h>
#include <stdio.h>

int scanf_pairs(char *data, size_t size, int *out, int max)
{
    int count, xt, n = 0;
    locale_t caller = uselocale(newlocale(LC_ALL_MASK, "C", (locale_t)0));
    FILE *in = size ? fmemopen(data, size, "r") : NULL; /* size 0: EINVAL in old glibc */
    while (in && n + 2 <= max && fscanf(in, "%d%d", &count, &xt) == 2)
        out[n++] = count, out[n++] = xt;
    if (in)
        fclose(in);
    freelocale(uselocale(caller));
    return n / 2;
}

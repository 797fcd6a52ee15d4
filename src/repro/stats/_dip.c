/* Hartigan & Hartigan (1985) dip statistic: the loop of dip.py::_dip_full,
 * run on each row of a matrix by dip_rows, the library's one entry.
 *
 * The same IEEE double operations in the same order as the Python
 * reference, with int64 indices, so the two return identical
 * (dip, low, high). dip.py compiles this file with -ffp-contract=off (no
 * fused multiply-add) and without -ffast-math, and uses the library only
 * after it has reproduced the reference on a fixed probe set.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>

/* x: n >= 1 doubles in ascending order. Writes the dip to *dip and the
 * modal interval's sorted indices to bounds[0], bounds[1], and returns 0.
 * Returns 1, writing nothing, where the outcome is left to the reference:
 * x holds NaN or an infinity (it raises), a divisor is zero (it raises
 * ZeroDivisionError), the modal interval is empty (it reads a list from
 * its end), or the work arrays cannot be allocated. */
static int dip_full(const double *x, int64_t n, double *dip, int64_t *bounds)
{
    for (int64_t i = 0; i < n; i++)
        if (!isfinite(x[i]))
            return 1;
    if (n <= 3 || x[0] == x[n - 1]) {
        *dip = n == 1 ? 0.0 : 1.0 / (2.0 * (double)n);
        bounds[0] = 0;
        bounds[1] = n - 1;
        return 0;
    }

    int64_t *mn = malloc(4 * (size_t)n * sizeof *mn);
    if (mn == NULL)
        return 1;
    int64_t *mj = mn + n, *gcm = mj + n, *lcm = gcm + n;
    int status = 0;
    int64_t low = 0, high = n - 1;
    double dip_value = 1.0 / (2.0 * (double)n);

    /* mn[j]: rightmost index < j joined to j on the greatest convex minorant */
    mn[0] = 0;
    for (int64_t j = 1; j < n; j++) {
        double xj = x[j];
        int64_t mnj = j - 1;
        while (mnj != 0) {
            int64_t mnmnj = mn[mnj];
            double xm = x[mnj];
            if ((xj - xm) * (double)(mnj - mnmnj) < (xm - x[mnmnj]) * (double)(j - mnj))
                break;
            mnj = mnmnj;
        }
        mn[j] = mnj;
    }

    /* mj[k]: leftmost index > k joined to k on the least concave majorant */
    mj[n - 1] = n - 1;
    for (int64_t k = n - 2; k >= 0; k--) {
        double xk = x[k];
        int64_t mjk = k + 1;
        while (mjk != n - 1) {
            int64_t mjmjk = mj[mjk];
            double xm = x[mjk];
            if ((xk - xm) * (double)(mjk - mjmjk) < (xm - x[mjmjk]) * (double)(k - mjk))
                break;
            mjk = mjmjk;
        }
        mj[k] = mjk;
    }

    for (;;) {
        if (low >= high) {
            status = 1;
            goto done;
        }
        /* change points of the GCM from high down to low */
        int64_t i = 0;
        gcm[0] = high;
        while (gcm[i] > low) {
            gcm[i + 1] = mn[gcm[i]];
            i++;
        }
        int64_t l_gcm = i + 1;
        int64_t ig = l_gcm - 1, ix = l_gcm - 2;

        /* change points of the LCM from low up to high */
        i = 0;
        lcm[0] = low;
        while (lcm[i] < high) {
            lcm[i + 1] = mj[lcm[i]];
            i++;
        }
        int64_t l_lcm = i + 1;
        int64_t ih = l_lcm - 1, iv = 1;

        /* largest distance between the GCM and the LCM within [low, high] */
        double d = 0.0;
        if (l_gcm != 2 || l_lcm != 2) {
            for (;;) {
                int64_t gcmix = gcm[ix], lcmiv = lcm[iv];
                double dx;
                if (gcmix > lcmiv) {
                    /* next change point is on the LCM */
                    int64_t gcmi1 = gcm[ix + 1];
                    double den = x[gcmix] - x[gcmi1];
                    if (den == 0.0) {
                        status = 1;
                        goto done;
                    }
                    dx = (double)(lcmiv - gcmi1 + 1)
                         - (x[lcmiv] - x[gcmi1]) * (double)(gcmix - gcmi1) / den;
                    iv++;
                    if (dx >= d) {
                        d = dx;
                        ig = ix + 1;
                        ih = iv - 1;
                    }
                } else {
                    /* next change point is on the GCM */
                    int64_t lcmiv1 = lcm[iv - 1];
                    double den = x[lcmiv] - x[lcmiv1];
                    if (den == 0.0) {
                        status = 1;
                        goto done;
                    }
                    dx = (x[gcmix] - x[lcmiv1]) * (double)(lcmiv - lcmiv1) / den
                         - (double)(gcmix - lcmiv1 - 1);
                    ix--;
                    if (dx >= d) {
                        d = dx;
                        ig = ix + 1;
                        ih = iv;
                    }
                }
                if (ix < 0)
                    ix = 0;
                if (iv > l_lcm - 1)
                    iv = l_lcm - 1;
                if (gcm[ix] == lcm[iv])
                    break;
            }
        } else {
            d = 1.0;
        }

        if (d < dip_value * 2.0 * (double)n)
            break;

        /* max deviation of the empirical CDF below the GCM chords ... */
        double dip_l = 0.0;
        for (int64_t j = ig; j < l_gcm - 1; j++) {
            double max_t = 1.0;
            int64_t jb = gcm[j + 1], je = gcm[j];
            double xb = x[jb];
            if (je - jb > 1 && x[je] != xb) {
                double c = (double)(je - jb) / (x[je] - xb);
                for (int64_t jr = jb; jr <= je; jr++) {
                    double t = (double)(jr - jb + 1) - (x[jr] - xb) * c;
                    if (max_t < t)
                        max_t = t;
                }
            }
            if (dip_l < max_t)
                dip_l = max_t;
        }

        /* ... and above the LCM chords */
        double dip_u = 0.0;
        for (int64_t j = ih; j < l_lcm - 1; j++) {
            double max_t = 1.0;
            int64_t jb = lcm[j], je = lcm[j + 1];
            double xb = x[jb];
            if (je - jb > 1 && x[je] != xb) {
                double c = (double)(je - jb) / (x[je] - xb);
                for (int64_t jr = jb; jr <= je; jr++) {
                    double t = (x[jr] - xb) * c - (double)(jr - jb - 1);
                    if (max_t < t)
                        max_t = t;
                }
            }
            if (dip_u < max_t)
                dip_u = max_t;
        }

        /* Python's max(dip_l, dip_u): the second only if strictly larger */
        double dip_new = (dip_u > dip_l ? dip_u : dip_l) / (2.0 * (double)n);
        if (dip_value < dip_new)
            dip_value = dip_new;

        int64_t new_low = gcm[ig], new_high = lcm[ih];
        if (low == new_low && high == new_high)
            break;
        low = new_low;
        high = new_high;
    }

    *dip = dip_value;
    bounds[0] = low;
    bounds[1] = high;
done:
    free(mn);
    return status;
}

/* x: rows samples of n >= 1 doubles each, row after row, each in ascending
 * order. Writes row r's dip to dips[r] and its modal interval to
 * bounds[2r], bounds[2r+1], or NaN to dips[r] for a row dip_full leaves to
 * the reference. */
void dip_rows(const double *x, int64_t rows, int64_t n, double *dips, int64_t *bounds)
{
    for (int64_t r = 0; r < rows; r++)
        if (dip_full(x + r * n, n, dips + r, bounds + 2 * r) != 0)
            dips[r] = NAN;
}

(** Descriptive statistics for experiment reporting.

    The paper reports box plots (Fig 3), averages/maxima (Fig 7, 11),
    percentage breakdowns (Fig 8, 9, Table II) and cumulative
    distributions (Fig 10).  This module provides the corresponding
    summaries over float samples. *)

val mean : float array -> float
(** Arithmetic mean; 0 on an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (Bessel-corrected, [n - 1] degrees of
    freedom); 0 on arrays shorter than 2. *)

val minimum : float array -> float
(** Raises [Invalid_argument] on an empty array, like every other
    order statistic in this module. *)

val maximum : float array -> float
(** Raises [Invalid_argument] on an empty array. *)

val quantile : float array -> float -> float
(** [quantile xs q] for [q] in \[0, 1\], linear interpolation between
    order statistics (type-7, the R default).  Raises
    [Invalid_argument] on an empty array or [q] outside \[0, 1\]. *)

val median : float array -> float

type box = {
  bmin : float;
  q1 : float;
  bmedian : float;
  q3 : float;
  bmax : float;
}
(** Five-number summary, as drawn in the paper's Fig 3 box plots (lines
    extend to the minimum and maximum data points). *)

val box_summary : float array -> box
(** Raises [Invalid_argument] on an empty array. *)

type cdf
(** Empirical cumulative distribution function. *)

val cdf_of_samples : float array -> cdf
(** Raises [Invalid_argument] on an empty array. *)

val cdf_eval : cdf -> float -> float
(** [cdf_eval c x] = fraction of samples [<= x]. *)

val cdf_inverse : cdf -> float -> float
(** [cdf_inverse c p] = smallest sample value [v] with
    [cdf_eval c v >= p].  [p] outside \[0,1\] raises. *)

val cdf_points : cdf -> (float * float) array
(** Sorted (value, cumulative fraction) support points. *)

type histogram = { edges : float array; counts : int array }
(** [edges] has [n+1] entries delimiting [n] bins; [counts.(i)] counts
    samples in \[edges.(i), edges.(i+1)) with the last bin closed. *)

val histogram : ?bins:int -> float array -> histogram
(** Equal-width histogram (default 10 bins).  Raises on empty input. *)

val percentage_breakdown : (string * int) list -> (string * float) list
(** Normalizes labelled counts to percentages summing to 100 (empty or
    all-zero input yields all zeros). *)

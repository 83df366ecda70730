(** Bayesian Information Criterion for a k-means clustering (SimPoint
    step 4, after Pelleg & Moore's X-means).

    The data in each cluster is modelled as an identical spherical
    Gaussian around its centroid; the BIC is the maximized log-likelihood
    penalized by (parameters/2)·log(effective sample size).  Weighted
    points enter as fractional counts, matching SimPoint 3.0's VLI
    treatment.  Higher is better. *)

val score :
  weights:float array -> points:float array array -> Kmeans.result -> float
(** @raise Invalid_argument on length mismatch. *)

val score_grouped :
  weights:float array -> points:float array array -> Kmeans.grouped -> float
(** [score ~weights ~points (Kmeans.expand g)], bit for bit, without the
    expansion ([weights] and [points] those [g] was prepared from).
    @raise Invalid_argument on length mismatch. *)

val pick_k :
  scores:(int * float) list -> fraction:float -> int
(** SimPoint's k-selection rule: among clusterings scored for several k,
    pick the smallest k whose BIC is at least
    [min + fraction * (max - min)].  [scores] is a list of (k, bic).
    @raise Invalid_argument if [scores] is empty or [fraction] outside
    [0, 1]. *)

"""Emotion label vocabulary.

The class order (angry, calm, panic) is fixed everywhere: confusion
matrices, classifier heads, probability vectors, and tie-breaking all
use this order.
"""

CLASSES = ("angry", "calm", "panic")

CLASS_INDEX = {label: i for i, label in enumerate(CLASSES)}
